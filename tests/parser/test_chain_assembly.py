"""Linear chain assembly: the same answer, less work.

A chain symbol (``QI``, ``HQI``, ``RBList``, ...: seeds ``X -> Y``,
steps ``X -> X Y`` and a criterion-free self-``subsumes`` rule) drops
each fix-point round's chains that its rule would kill when the symbol
ends, before they are registered.  That must change how much is built,
never what comes out.  The oracle is the same parser with its per-symbol
chain-step table emptied, which builds every chain and enforces each
preference only at the end of its symbols (paper Figure 11); against it,
on every input the oracle parses to completion, linear assembly must
print the same trees, merge the same conditions, report the same
conflict and missing tokens and the same ``truncated`` flag, and never
create more instances.  Two staircases still split the two; they are
pinned as strict expected failures.

Where the oracle itself stops at the instance budget its answer is a
budget-capped partial result, not a ground truth: there only the
instance bound is checked (linear assembly is what makes those inputs
finish at all).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.navmenu import build_menu_grammar
from repro.datasets.domains import DOMAINS
from repro.datasets.fixtures import (
    QAA_HTML,
    QAA_VARIANT_HTML,
    QAM_FRAGMENT_HTML,
    QAM_HTML,
)
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.extractor import FormExtractor
from repro.grammar.dsl import GrammarBuilder
from repro.grammar.example_g import build_example_grammar
from repro.grammar.preference import subsumes
from repro.grammar.standard import build_standard_grammar
from repro.html.parser import parse_html
from repro.layout.box import BBox
from repro.merger import Merger
from repro.parser.parser import BestEffortParser, ExhaustiveParser, ParserConfig
from repro.parser.schedule import self_subsuming_heads
from repro.tokens.model import Token
from repro.tokens.tokenizer import FormTokenizer
from tests.fuzz.corpus import SEEDS
from tests.fuzz.mutator import mutations
from tests.parser.certificate import certify
from tests.parser.test_kernel_equivalence import (
    _TOKEN_SETS as ZIPF_FORMS,
    zipf_soups,
)
from tests.parser.test_seminaive_equivalence import (
    _TOKEN_SETS as GENERATED_FORMS,
)

_GRAMMARS = {
    "standard": build_standard_grammar(),
    "example_g": build_example_grammar(),
    "navmenu": build_menu_grammar(),
}

#: The recursive symbols whose every preference is a self-``subsumes``
#: one, per shipped grammar: all of them chain symbols.
_SELF_SUBSUMING = {
    "standard": {"QI", "HQI", "RBList", "CBList"},
    "example_g": {"QI", "HQI", "RBList"},
    "navmenu": {"Page", "HMenu", "VMenu"},
}

#: Fuzz mutants in the leg: the fuzz harness's default seed, and the
#: first 100 of its mutants.  The oracle runs the exponential ``QI``
#: stacking, which bounds how many it can afford (one of these
#: already drives the oracle into its budget).
FUZZ_SEED = 20040613
FUZZ_MUTANTS = 100

_FIGURE_3 = {
    "qam": QAM_HTML,
    "qam-fragment": QAM_FRAGMENT_HTML,
    "qaa": QAA_HTML,
    "qaa-variant": QAA_VARIANT_HTML,
}


def _tokens_of(html):
    """The tokens of the page's first form (the whole page without one)."""
    document = parse_html(html)
    forms = document.forms
    return FormTokenizer(document).tokenize(forms[0] if forms else None)


def _parse(grammar, tokens, oracle=False, **config):
    parser = BestEffortParser(grammar, ParserConfig(**config))
    if not oracle:
        return parser.parse(tokens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_chain_steps", {})
        return parser.parse(tokens)


def _answer(result):
    """What a parse tells its caller: trees, model and token reports."""
    report = Merger().merge(result)
    return {
        "trees": [tree.pretty() for tree in result.trees],
        "conditions": [str(condition) for condition in report.model.conditions],
        "conflict_tokens": [token.id for token in report.conflict_tokens],
        "missing_tokens": [token.id for token in report.missing_tokens],
        "truncated": result.stats.truncated,
    }


def _assert_matches_oracle(grammar, tokens, **config):
    """Linear assembly vs every chain built, on one input.

    Returns False when the oracle stopped at its budget (nothing to
    compare but the instance bound), True when the answers were
    compared.
    """
    assembled = _parse(grammar, tokens, **config)
    oracle = _parse(grammar, tokens, oracle=True, **config)
    assert assembled.stats.instances_created <= oracle.stats.instances_created
    if oracle.stats.truncated:
        return False
    assert _answer(assembled) == _answer(oracle)
    return True


# ---------------------------------------------------------------------------
# The oracle leg.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("evaluation", ["seminaive", "naive"])
@pytest.mark.parametrize(
    "label,tokens", GENERATED_FORMS, ids=[label for label, _ in GENERATED_FORMS]
)
def test_matches_oracle_on_generated_forms(label, tokens, evaluation):
    assert _assert_matches_oracle(
        _GRAMMARS["standard"], tokens, evaluation=evaluation
    )


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
@pytest.mark.parametrize(
    "label,tokens", ZIPF_FORMS, ids=[label for label, _ in ZIPF_FORMS]
)
def test_matches_oracle_on_zipf_forms(label, tokens, grammar_name):
    grammar = _GRAMMARS[grammar_name]
    compared = _assert_matches_oracle(grammar, tokens)
    # Only the navigation-menu grammar, whose menus are not what these
    # query forms contain, drives the oracle into its budget.
    assert compared or grammar_name == "navmenu"


@pytest.mark.parametrize("name", sorted(_FIGURE_3))
def test_matches_oracle_on_figure_3_fixtures(name):
    assert _assert_matches_oracle(
        _GRAMMARS["standard"], _tokens_of(_FIGURE_3[name])
    )


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_matches_oracle_on_fuzz_seeds(name):
    assert _assert_matches_oracle(_GRAMMARS["standard"], _tokens_of(SEEDS[name]))


def test_matches_oracle_on_fuzz_mutants():
    compared = 0
    for _, html in mutations(FUZZ_SEED, FUZZ_MUTANTS):
        compared += _assert_matches_oracle(
            _GRAMMARS["standard"], _tokens_of(html)
        )
    # Nearly every mutant parses to completion under the oracle too.
    assert compared >= FUZZ_MUTANTS - 5


def _soup(layout):
    """Tokens from ``{id: (terminal, (left, right, top, bottom))}``: every
    text reads ``Author`` and textbox *i* is named ``f``*i*."""
    tokens = []
    for token_id in sorted(layout):
        terminal, box = layout[token_id]
        attrs = (
            {"sval": "Author"} if terminal == "text"
            else {"name": f"f{token_id}"}
        )
        tokens.append(Token(
            id=token_id, terminal=terminal, bbox=BBox(*map(float, box)),
            attrs=attrs,
        ))
    return tokens


#: A 13-token soup on which round pruning once returned token 11's tree
#: under a ``QI`` root and the oracle under an ``HQI`` root: in the
#: oracle a stack ``QI([0, 4], h11)`` kills the seed ``QI(h11)`` and is
#: rolled back afterwards, a stack round pruning never built (it killed
#: the sub-row seed ``QI([0, 4])`` first).  Linear chain assembly, like
#: the oracle, lets that sub-row feed the seeds before it in creation
#: order, drops ``QI(h11)``, and so returns the oracle's trees.
_DIVERGENT_SOUP = _soup({
    0: ("textbox", (10, 120, 34, 54)),
    1: ("text", (250, 310, 58, 78)),
    **{i: ("textbox", (10, 120, 10, 30)) for i in (2, 3, 6, 7)},
    **{i: ("text", (10, 70, 10, 30)) for i in (4, 8, 10)},
    5: ("textbox", (250, 360, 34, 54)),
    9: ("text", (130, 190, 10, 30)),
    11: ("textbox", (250, 360, 58, 78)),
    12: ("text", (10, 70, 34, 54)),
})


#: A 10-token soup that splits round pruning and the oracle at the
#: commit before linear chain assembly: the oracle kills the stack
#: ``QI(h2, h3)`` with ``QI(h2, h0, h3)``, a stack built on the sub-row
#: ``h0`` of the row ``[0, 1, 7]`` and rolled back afterwards, so token
#: 3 ends up in a lone ``HQI``; round pruning killed that sub-row before
#: extending it, so ``QI(h2, h3)`` survived.  Linear chain assembly, like
#: the oracle, lets a sub-row feed the chains before it in its group.
_ROLLBACK_SOUP = _soup({
    0: ("text", (10, 70, 82, 102)),
    1: ("textbox", (370, 480, 82, 102)),
    **{i: ("textbox", (10, 120, 10, 30)) for i in (2, 8, 9)},
    3: ("textbox", (370, 480, 106, 126)),
    **{i: ("text", (10, 70, 10, 30)) for i in (4, 5, 6)},
    7: ("text", (370, 430, 106, 126)),
})


def _staircase(ids):
    """Three texts on a staircase, each 10 px right of and 11 px below
    the last, with token ids *ids* from the top step down.

    Each ``HQI`` seed feeds the next step (``_row_chain`` allows a 12 px
    centre offset), but the first two steps' union is 16.5 px off the
    third, so no chain of all three exists.
    """
    return _soup({
        token: ("text", (10 * step, 10 * step + 10, 11 * step, 11 * step + 10))
        for step, token in enumerate(ids)
    })


_STAIRCASES = {"down": _staircase((0, 1, 2)), "up": _staircase((2, 1, 0))}


class TestOracleProperties:
    @given(zipf_soups(), st.sampled_from(sorted(_GRAMMARS)))
    @example(tokens=_DIVERGENT_SOUP, grammar_name="standard")
    @example(tokens=_ROLLBACK_SOUP, grammar_name="standard")
    @example(tokens=_STAIRCASES["down"], grammar_name="standard")
    @example(tokens=_STAIRCASES["up"], grammar_name="standard")
    @settings(max_examples=75, deadline=None)
    def test_matches_oracle_on_random_soups(self, tokens, grammar_name):
        _assert_matches_oracle(_GRAMMARS[grammar_name], tokens)


def test_divergent_soup_matches_the_oracle():
    """The soup that once split the two: the same trees, models and
    token reports."""
    grammar = _GRAMMARS["standard"]
    assembled = _parse(grammar, _DIVERGENT_SOUP)
    oracle = _parse(grammar, _DIVERGENT_SOUP, oracle=True)
    assert not oracle.stats.truncated
    assert assembled.stats.instances_created <= oracle.stats.instances_created
    answer = _answer(assembled)
    expected = _answer(oracle)
    for key in (
        "trees", "conditions", "conflict_tokens", "missing_tokens",
        "truncated",
    ):
        assert answer[key] == expected[key], key
    assert answer["conflict_tokens"] == [0, 12]
    assert answer["missing_tokens"] == []


def test_rollback_soup_matches_the_oracle():
    """The second soup that once split the two: both results certified,
    and the same trees, models and token reports."""
    grammar = _GRAMMARS["standard"]
    assembled = _parse(grammar, _ROLLBACK_SOUP)
    oracle = _parse(grammar, _ROLLBACK_SOUP, oracle=True)
    assert not oracle.stats.truncated
    certify(assembled, grammar)
    certify(oracle, grammar)
    assert _answer(assembled) == _answer(oracle)


@pytest.mark.parametrize("direction", sorted(_STAIRCASES))
def test_staircase_matches_the_oracle(direction):
    """A chain is dropped only while a chain feeding it still lives.

    Down the stairs (creation order), ``HQI(t0)`` feeds and kills
    ``HQI(t1)``, which fed ``HQI(t2)``; ``HQI(t0 t1)`` cannot reach
    ``t2``, so ``HQI(t2)`` must be kept and ``QI`` stacks all three
    texts.  Up the stairs, enforcement takes ``HQI(t2)`` first, while
    ``HQI(t1 t2)`` still lives, and the oracle too leaves ``t2`` out.
    """
    grammar = _GRAMMARS["standard"]
    tokens = _STAIRCASES[direction]
    assembled = _parse(grammar, tokens)
    oracle = _parse(grammar, tokens, oracle=True)
    assert not oracle.stats.truncated
    certify(assembled, grammar)
    assert _answer(assembled) == _answer(oracle)
    assert assembled.stats.instances_created < oracle.stats.instances_created
    if direction == "down":
        (tree,) = assembled.trees
        assert tree.symbol == "QI"
        assert tree.coverage == {0, 1, 2}


#: Two staircases of mixed text and textbox steps, with shuffled ids, on
#: which linear assembly and the oracle answer differently, both answers
#: certified and both evaluators agreeing: on ``a`` assembly covers token
#: 2 and the oracle reports it missing; on ``b`` assembly reports tokens
#: 0 and 4 missing and the oracle only 0, so a row is lost.
_DIVERGENT_STAIRCASES = {
    "a": _soup({
        0: ("text", (42, 52, 24, 34)),
        1: ("textbox", (112, 122, 58, 68)),
        2: ("text", (57, 67, 34, 44)),
        3: ("text", (97, 107, 47, 57)),
        4: ("textbox", (152, 162, 71, 81)),
        5: ("text", (10, 20, 10, 30)),
        6: ("text", (30, 40, 20, 30)),
    }),
    "b": _soup({
        0: ("text", (150, 160, 41, 51)),
        1: ("text", (10, 20, 10, 20)),
        2: ("textbox", (35, 145, 33, 43)),
        3: ("text", (25, 35, 21, 31)),
        4: ("text", (162, 172, 49, 69)),
    }),
}


class _OracleSplit(AssertionError):
    """Linear assembly and the oracle answered differently."""


@pytest.mark.xfail(
    strict=True, raises=_OracleSplit,
    reason="linear assembly and the oracle split on these staircases",
)
@pytest.mark.parametrize("evaluation", ["seminaive", "naive"])
@pytest.mark.parametrize("name", sorted(_DIVERGENT_STAIRCASES))
def test_divergent_staircase_matches_the_oracle(name, evaluation):
    """Only the comparison may fail: a certificate failure or a truncated
    oracle is an error, not the expected split."""
    grammar = _GRAMMARS["standard"]
    tokens = _DIVERGENT_STAIRCASES[name]
    assembled = _parse(grammar, tokens, evaluation=evaluation)
    oracle = _parse(grammar, tokens, oracle=True, evaluation=evaluation)
    assert not oracle.stats.truncated
    certify(assembled, grammar)
    certify(oracle, grammar)
    if _answer(assembled) != _answer(oracle):
        raise _OracleSplit(f"{_answer(assembled)} != {_answer(oracle)}")


# ---------------------------------------------------------------------------
# Where the rule applies.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_every_self_subsuming_symbol_is_a_chain_symbol(grammar_name):
    """Construction prunes a recursive self-``subsumes`` symbol only when
    it is a chain symbol (lint ``P014`` flags any other); every shipped
    one is."""
    heads = self_subsuming_heads(_GRAMMARS[grammar_name])
    assert set(heads) == _SELF_SUBSUMING[grammar_name]
    assert all(heads.values())


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_linear_assembly_covers_every_self_subsuming_symbol(grammar_name):
    """Every shipped self-subsuming symbol is a chain symbol: seeds
    ``X -> Y`` and steps ``X -> X Y`` only."""
    grammar = _GRAMMARS[grammar_name]
    parser = BestEffortParser(grammar)
    assert set(parser._chain_steps) == _SELF_SUBSUMING[grammar_name]
    for symbol, steps in parser._chain_steps.items():
        assert steps == tuple(
            production for production in grammar.productions_for(symbol)
            if len(production.components) == 2
        )
        assert all(step.components[0] == symbol for step in steps)


def _cycle_grammar():
    """``X`` chains ``Y`` rows in any order, so every row feeds every
    other one and no chain starts at a source."""
    builder = GrammarBuilder("X", name="cycle")
    builder.terminals("textbox")
    builder.production("Y", ["textbox"], name="Y-row")
    builder.production("X", ["Y"], name="X-seed")
    builder.production("X", ["X", "Y"], name="X-step")
    builder.prefer("X", over="X", when=subsumes, name="bigger-x")
    return builder.build()


def test_rows_that_feed_each_other_keep_their_chains():
    """Where rows feed each other in a cycle, the last chain of the
    cycle is kept: the whole form still parses into one ``X``, as the
    oracle parses it."""
    grammar = _cycle_grammar()
    tokens = [
        Token(id=index, terminal="textbox",
              bbox=BBox(10.0 * index, 10.0 * index + 8, 0.0, 8.0), attrs={})
        for index in range(3)
    ]
    assembled = _parse(grammar, tokens)
    oracle = _parse(grammar, tokens, oracle=True)
    assert [tree.pretty() for tree in assembled.trees] == [
        tree.pretty() for tree in oracle.trees
    ]
    (tree,) = assembled.trees
    assert tree.symbol == "X"
    assert tree.coverage == {0, 1, 2}
    assert assembled.stats.instances_created < oracle.stats.instances_created


def test_exhaustive_parser_builds_every_chain():
    """Preferences off means no chain is dropped either: the brute-force
    baseline builds exactly what it builds with no chain steps."""
    grammar = _GRAMMARS["example_g"]
    tokens = _tokens_of(QAM_FRAGMENT_HTML)
    exhaustive = ExhaustiveParser(grammar)
    result = exhaustive.parse(tokens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exhaustive, "_chain_steps", {})
        baseline = exhaustive.parse(tokens)
    assert result.stats.instances_pruned == 0
    assert result.stats.counters() == baseline.stats.counters()
    assert [tree.pretty() for tree in result.trees] == [
        tree.pretty() for tree in baseline.trees
    ]


# ---------------------------------------------------------------------------
# Several forms on one page.
# ---------------------------------------------------------------------------

#: batch120's generator profile, seed base and token band.
_BATCH_PROFILE = GeneratorProfile(
    min_conditions=3, max_conditions=7, rare_pattern_prob=0.0
)
_BATCH_SEED = 61_000
_BATCH_BAND = (14, 32)

#: Instance ceiling per multi-form page.  Without linear chain assembly
#: most of these pages stop at the 200,000-instance budget.
MAX_PAGE_INSTANCES = 5_000


def _form_body(html):
    start = html.index(">", html.index("<form")) + 1
    return html[start:html.index("</form>")]


def _batch_form_bodies(count):
    """The first *count* batch120 forms, as the inside of their ``<form>``."""
    domains = sorted(DOMAINS)
    bodies = []
    seed = _BATCH_SEED
    while len(bodies) < count:
        domain = DOMAINS[domains[seed % len(domains)]]
        html = SourceGenerator(domain, _BATCH_PROFILE).generate(seed).html
        seed += 1
        if _BATCH_BAND[0] <= len(_tokens_of(html)) <= _BATCH_BAND[1]:
            bodies.append(_form_body(html))
    return bodies


def _page(bodies):
    """Several forms' controls inside one whole-page ``<form>``."""
    blocks = "".join(f"<div>{body}</div>" for body in bodies)
    return (
        "<html><body><form action=/search method=post>"
        f"{blocks}</form></body></html>"
    )


_FORM_BODIES = _batch_form_bodies(24)


@pytest.mark.parametrize("per_page", [3, 4])
def test_multi_form_pages_do_not_truncate(per_page):
    extractor = FormExtractor()
    for start in range(0, len(_FORM_BODIES), per_page):
        page = _page(_FORM_BODIES[start:start + per_page])
        stats = extractor.extract_detailed(page).parse.stats
        assert not stats.truncated, f"page at form {start} truncated"
        assert stats.instances_created < MAX_PAGE_INSTANCES, (
            f"page at form {start}: {stats.instances_created} instances"
        )
