"""Semi-naive vs naive, and every shape of enforcement: one answer.

The semi-naive fix-point filters candidates through the sorted window of
:class:`~repro.parser.spatial_index.GeometryTable` and enforces
preferences on each instance's ``coverage_mask`` int, one candidate list
per alive loser, once per preference and symbol.  Each of
these must be a pure performance transformation: naive evaluation stays
the ground truth for trees and models, and the enforcement variants are
compared on identical geometry, byte for byte (trees, merged models,
warnings, and every ``ParseStats`` counter):

* **id shift** -- the same tokens with every ``token.id`` increased by 64
  put every coverage bit past the first 64 (by 200 in the oracle leg);
* **reference oracle** -- :func:`reference_enforce`, enforcement by
  definition (every alive loser against every alive winner through
  :meth:`Preference.applies`, no masks), patched over
  the production ``enforce``.

Coverage comes from three directions: Zipf-profile generated forms across
every domain, the shipped grammars beyond the standard one, and
hypothesis-generated random token soups.  Five wide fuzz mutants pin the
exact counters of parses past 64 tokens, and on them and the Zipf forms
each preference is checked to meet alive losers and alive winners in
one pass at most per parse.  The standard grammar's ``shares``
conditions are checked against the plain closures they replaced.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.navmenu import build_menu_grammar
from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.extractor import FormExtractor
from repro.grammar.dsl import GrammarBuilder
from repro.grammar.example_g import build_example_grammar
from repro.grammar.standard import build_standard_grammar
from repro.html.parser import parse_html
from repro.layout.box import BBox
from repro.merger import merge_parse_result
from repro.parser import core as parser_core
from repro.parser import parser as parser_module
from repro.parser.parser import BestEffortParser, ParserConfig
from repro.tokens.model import SelectOption, Token
from repro.tokens.tokenizer import FormTokenizer
from tests.fuzz.mutator import mutant

FORMS_PER_DOMAIN = 3  # 8 domains -> 24 Zipf-profile forms

#: Zipf-heavy profile: the generator's pattern choice is already
#: Zipf-distributed; wide condition counts make large mixed pools.
_PROFILE = GeneratorProfile(min_conditions=2, max_conditions=8)

#: Shifting every token id by this much leaves no id below 64, so no
#: coverage mask of the parse fits one machine word.
ID_SHIFT = 64

#: The oracle leg's id shifts: masks of up to 64, 128 and 256 bits.
ORACLE_SHIFTS = (0, 64, 200)


def _generate_token_sets():
    """FORMS_PER_DOMAIN Zipf-profile tokenized forms per domain.

    Seeds are disjoint from the ``test_seminaive_equivalence`` corpus so
    the two nets do not silently test the same inputs.
    """
    token_sets = []
    for offset, name in enumerate(sorted(DOMAINS)):
        generator = SourceGenerator(DOMAINS[name], _PROFILE)
        for index in range(FORMS_PER_DOMAIN):
            source = generator.generate(seed=23_000 + offset * 100 + index)
            document = parse_html(source.html)
            forms = document.forms
            tokenizer = FormTokenizer(document)
            tokens = tokenizer.tokenize(forms[0] if forms else None)
            token_sets.append((f"{name}-{index}", tokens))
    return token_sets


_TOKEN_SETS = _generate_token_sets()
_GRAMMARS = {
    "standard": build_standard_grammar(),
    "example_g": build_example_grammar(),
    "navmenu": build_menu_grammar(),
}

#: The fingerprint fields naive evaluation must match: it enumerates
#: differently (no prefilter), so its counters legitimately differ.
_STRUCTURAL = ("trees", "creation_order", "conditions", "truncated")


def _fingerprint(result):
    """Everything that must match between equivalent parses."""
    model = merge_parse_result(result)
    return {
        "counters": result.stats.counters(),
        "truncated": result.stats.truncated,
        "trees": [tree.pretty() for tree in result.trees],
        # uid values are globally monotonic across parses; creation ORDER
        # plus symbol plus liveness is the portable identity.
        "creation_order": [
            (inst.symbol, inst.alive)
            for inst in result.instances
            if not inst.is_terminal
        ],
        "conditions": [str(condition) for condition in model.conditions],
    }


def _parse(grammar, tokens, **config):
    return BestEffortParser(grammar, ParserConfig(**config)).parse(tokens)


def shift_ids(tokens, shift=ID_SHIFT):
    """The same tokens, same geometry, every ``id`` raised by *shift*."""
    return [dataclasses.replace(token, id=token.id + shift) for token in tokens]


def _assert_enforcement_paths_agree(grammar, tokens, **config):
    """Ids from 0 and ids past 63: one fingerprint."""
    shifted = shift_ids(tokens)
    assert all(token.id >= 64 for token in shifted)
    expected = _fingerprint(_parse(grammar, tokens, **config))
    assert _fingerprint(_parse(grammar, shifted, **config)) == expected


@pytest.mark.parametrize(
    "label,tokens", _TOKEN_SETS, ids=[label for label, _ in _TOKEN_SETS]
)
def test_enforcement_paths_agree_on_zipf_forms(label, tokens):
    """Identical forests, counters, and merged models per generated form."""
    _assert_enforcement_paths_agree(_GRAMMARS["standard"], tokens)


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_enforcement_paths_agree_on_shipped_grammars(grammar_name):
    """Every shipped grammar, not just the standard one, gives ids from
    0 and ids past 63 the same answer."""
    grammar = _GRAMMARS[grammar_name]
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 8)]:
        expected = _fingerprint(_parse(grammar, tokens))
        assert _fingerprint(_parse(grammar, shift_ids(tokens))) == expected


def reference_enforce(core, preference, counters):
    """Enforcement by definition: each alive loser, in pool order, is
    rolled back when some alive winner beats it under
    :meth:`Preference.applies`.  No masks."""
    winners = core.store.get(preference.winner_symbol, [])
    for loser in core.store.get(preference.loser_symbol, []):
        if loser.alive and any(
            winner.alive and preference.applies(winner, loser)
            for winner in winners
        ):
            counters.preference_applications += 1
            parser_core.rollback(core, loser, counters)


def _parse_reference(grammar, tokens, **config):
    """Parse with :func:`reference_enforce` in place of ``enforce``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_core, "enforce", reference_enforce)
        patch.setattr(parser_module, "enforce", reference_enforce)
        return _parse(grammar, tokens, **config)


def _assert_reference_agrees(grammar, tokens, **config):
    for shift in ORACLE_SHIFTS:
        stream = shift_ids(tokens, shift)
        assert _fingerprint(
            _parse_reference(grammar, stream, **config)
        ) == _fingerprint(_parse(grammar, stream, **config))


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_reference_enforcement_agrees(grammar_name):
    """Every shipped grammar gives enforcement and the reference oracle
    one fingerprint, with ids from 0, 64 and 200."""
    grammar = _GRAMMARS[grammar_name]
    for _, tokens in _TOKEN_SETS:
        _assert_reference_agrees(grammar, tokens)


def test_each_preference_meets_both_pools_in_one_pass_at_most():
    """A preference runs when each of its symbols' fix-point ends, and
    each symbol is instantiated once, in schedule order: within one
    parse, at most one pass of a preference finds alive losers and alive
    winners together, so no pair is ever tested twice.  Enforcing within
    a fix-point, once per round, breaks this."""
    meetings = []
    enforce = parser_core.enforce

    def recording_enforce(core, preference, counters):
        if any(
            inst.alive for inst in core.store.get(preference.loser_symbol, ())
        ) and any(
            inst.alive for inst in core.store.get(preference.winner_symbol, ())
        ):
            meetings.append(preference.name)
        enforce(core, preference, counters)

    inputs = [
        (grammar, tokens)
        for grammar in _GRAMMARS.values()
        for _, tokens in _TOKEN_SETS
    ] + [(_GRAMMARS["standard"], _mutant_tokens(i)) for i in _WIDE_MUTANTS]
    met = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_core, "enforce", recording_enforce)
        patch.setattr(parser_module, "enforce", recording_enforce)
        for grammar, tokens in inputs:
            meetings.clear()
            _parse(grammar, tokens)
            assert len(meetings) == len(set(meetings)), sorted(meetings)
            met += len(meetings)
    assert met


#: The standard grammar's ``shares`` rules and the payload keys each
#: compares, as the one-key closures ``shares`` replaced spelled them.
_SHARED_KEYS = {
    "R6d-dom-evidence-wins": ("val_uid", "attr_uid"),
    "R6e-lone-widget-self-labeled": ("val_uid",),
    "R6a-attr-binds-horizontal": ("attr_uid",),
    "R6b-val-binds-horizontal": ("val_uid",),
    "R6c-op-binds-closest": ("op_uid",),
}


def _plain_share(key):
    """Conflict condition: both CPs use the same component instance."""

    def condition(v1, v2):
        first = v1.payload.get(key)
        return first is not None and first == v2.payload.get(key)

    return condition


def _plain_condition_grammar(grammar):
    """*grammar* with each ``shares`` condition spelled as before: one
    plain closure per key, the two of R6d or-ed in a lambda."""

    def plain(keys):
        checks = [_plain_share(key) for key in keys]
        return lambda v1, v2: any(check(v1, v2) for check in checks)

    return dataclasses.replace(grammar, preferences=tuple(
        dataclasses.replace(
            preference, condition=plain(_SHARED_KEYS[preference.name])
        )
        if preference.name in _SHARED_KEYS
        else preference
        for preference in grammar.preferences
    ))


def test_shares_matches_plain_conditions_on_zipf_forms():
    """``shares`` conditions and the plain closures they replaced: one
    fingerprint per Zipf form."""
    shared = _GRAMMARS["standard"]
    plain = _plain_condition_grammar(shared)
    assert set(_SHARED_KEYS) <= {pref.name for pref in shared.preferences}
    for _, tokens in _TOKEN_SETS:
        assert _fingerprint(_parse(plain, tokens)) == _fingerprint(
            _parse(shared, tokens)
        )


def _wrapper_grammar():
    """``X`` wraps one ``A``, over one token or two, and an ``A`` beats
    any ``X`` it conflicts with that covers no more tokens than it does."""
    builder = GrammarBuilder("X", name="wrapper")
    builder.terminals("textbox")
    builder.production("A", ["textbox"], name="A-one")
    builder.production(
        "A", ["textbox", "textbox"],
        constraint=lambda first, second: first.bbox.left < second.bbox.left,
        name="A-two",
    )
    builder.production("X", ["A"], name="X-wraps")
    builder.prefer(
        "A", over="X",
        criteria=lambda v1, v2: len(v1.coverage) >= len(v2.coverage),
        name="A-over-X",
    )
    return builder.build()


def test_no_loser_is_beaten_by_its_own_component():
    """Only its own component could beat the ``X`` over the two-token
    ``A``, so it survives; the one-token ``X`` die to that ``A``."""
    grammar = _wrapper_grammar()
    tokens = [
        Token(id=index, terminal="textbox",
              bbox=BBox(10.0 * index, 10.0 * index + 8, 0.0, 8.0), attrs={})
        for index in range(2)
    ]
    result = _parse(grammar, tokens)
    assert result.stats.instances_pruned == 2
    assert [
        sorted(instance.coverage) for instance in result.instances
        if instance.symbol == "X" and instance.alive
    ] == [[0, 1]]
    assert _fingerprint(_parse_reference(grammar, tokens)) == _fingerprint(
        result
    )


#: Exact counters of five wide fuzz mutants (``mutant(20040613, i)``,
#: first form, standard grammar): ``(tokens, instances_created,
#: combos_examined, instances_pruned, rollback_kills, trees)``.  #96 and
#: #244 were first pinned when the per-token winner index still enforced
#: every parse past 64 tokens, so wide masks must reproduce its answers
#: exactly; linear chain assembly left every tree as it was and cut the
#: counts (#96 built 5,265 instances before it, #244 11,904, #112 30,746,
#: #307 34,809, #203 54,427).
_WIDE_MUTANTS = {
    96: (96, 384, 1_226, 0, 0, 1),
    112: (386, 1_544, 4_996, 0, 0, 1),
    203: (639, 2_556, 8_285, 0, 0, 1),
    244: (181, 725, 2_342, 0, 0, 1),
    307: (444, 1_776, 5_750, 0, 0, 1),
}


def _mutant_tokens(index):
    """The first form's tokens of ``mutant(20040613, index)``."""
    _, html = mutant(20040613, index)
    document = parse_html(html)
    forms = document.forms
    return FormTokenizer(document).tokenize(forms[0] if forms else None)


@pytest.mark.parametrize("index", sorted(_WIDE_MUTANTS))
def test_wide_mutants_keep_their_counters(index):
    tokens = _mutant_tokens(index)
    result = _parse(_GRAMMARS["standard"], tokens)
    stats = result.stats
    assert (
        len(tokens),
        stats.instances_created,
        stats.combos_examined,
        stats.instances_pruned,
        stats.rollback_kills,
        len(result.trees),
    ) == _WIDE_MUTANTS[index]
    assert not stats.truncated


def test_naive_ground_truth():
    """Naive and semi-naive evaluation build the same forest and model,
    with ids from 0 and ids past 63."""
    grammar = _GRAMMARS["standard"]
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 6)]:
        for stream in (tokens, shift_ids(tokens)):
            naive = _fingerprint(_parse(grammar, stream, evaluation="naive"))
            fast = _fingerprint(_parse(grammar, stream))
            for key in _STRUCTURAL:
                assert fast[key] == naive[key]


def test_truncation_is_enforcement_identical():
    """Budget exhaustion cuts every enforcement path at the same instance."""
    _, tokens = max(_TOKEN_SETS, key=lambda pair: len(pair[1]))
    for budget in (10, 40, 120):
        assert _parse(
            _GRAMMARS["standard"], tokens, max_instances=budget
        ).stats.truncated
        _assert_enforcement_paths_agree(
            _GRAMMARS["standard"], tokens, max_instances=budget
        )


def test_extractor_warnings_are_enforcement_identical():
    """The full pipeline (parse, merge) emits the same warnings, model,
    and conflict/missing tokens whichever enforcement path runs."""

    def outcome(tokens, shift=0):
        detailed = FormExtractor().extract_from_tokens(tokens)
        return (
            detailed.warnings,
            [str(c) for c in detailed.model.conditions],
            [t.id - shift for t in detailed.report.conflict_tokens],
            [t.id - shift for t in detailed.report.missing_tokens],
        )

    for _, tokens in _TOKEN_SETS[:4]:
        expected = outcome(tokens)
        assert outcome(shift_ids(tokens), shift=ID_SHIFT) == expected


# ---------------------------------------------------------------------------
# Hypothesis: random token soups, Zipf-weighted terminal mix.
# ---------------------------------------------------------------------------

#: Terminals repeated by (approximate) Zipf rank weight: ``sampled_from``
#: over the expanded list gives the frequent-head / long-tail mix real
#: forms show without needing a custom probability distribution.
_ZIPF_TERMINALS = (
    ("text", 8), ("textbox", 4), ("selectlist", 3), ("radiobutton", 2),
    ("checkbox", 2), ("submitbutton", 1),
)
_WEIGHTED_TERMINALS = tuple(
    name for name, weight in _ZIPF_TERMINALS for _ in range(weight)
)

_WORDS = ("Author", "Title", "from", "to", "exact name", "contains",
          "Price", "Search", "miles", "New", "Used", "Keywords:",
          "starts with", "Any", "2004")


@st.composite
def zipf_soups(draw):
    """Random form layouts on a loose grid with a Zipf terminal mix.

    ``id_base`` pushes half the examples past ``token.id >= 64``, so
    their coverage masks straddle bit 64.
    """
    count = draw(st.integers(min_value=0, max_value=16))
    id_base = draw(st.sampled_from((0, 61)))
    tokens = []
    for index in range(count):
        terminal = draw(st.sampled_from(_WEIGHTED_TERMINALS))
        column = draw(st.integers(min_value=0, max_value=3))
        row = draw(st.integers(min_value=0, max_value=6))
        left = 10.0 + column * 120 + draw(st.integers(0, 30))
        top = 10.0 + row * 24 + draw(st.integers(0, 4))
        width = {"text": 60.0, "textbox": 110.0, "selectlist": 80.0,
                 "radiobutton": 13.0, "checkbox": 13.0,
                 "submitbutton": 60.0}[terminal]
        height = 13.0 if terminal in ("radiobutton", "checkbox") else 20.0
        attrs = {}
        if terminal == "text":
            attrs["sval"] = draw(st.sampled_from(_WORDS))
        elif terminal == "selectlist":
            attrs["name"] = f"sel{index}"
            attrs["options"] = (
                SelectOption("a", "a"), SelectOption("b", "b"),
            )
        elif terminal != "submitbutton":
            attrs["name"] = f"f{index}"
            if terminal in ("radiobutton", "checkbox"):
                attrs["value"] = f"v{index}"
        tokens.append(Token(
            id=id_base + index, terminal=terminal,
            bbox=BBox(left, left + width, top, top + height),
            attrs=attrs,
        ))
    return tokens


class TestEnforcementProperties:
    @given(zipf_soups())
    @settings(max_examples=50, deadline=None)
    def test_enforcement_paths_agree_on_random_soups(self, tokens):
        _assert_enforcement_paths_agree(_GRAMMARS["standard"], tokens)

    @given(zipf_soups())
    @settings(max_examples=25, deadline=None)
    def test_enforcement_paths_agree_under_tight_budgets(self, tokens):
        _assert_enforcement_paths_agree(
            _GRAMMARS["standard"], tokens, max_instances=60
        )

    @given(zipf_soups())
    @settings(max_examples=25, deadline=None)
    def test_reference_enforcement_agrees_on_random_soups(self, tokens):
        _assert_reference_agrees(_GRAMMARS["standard"], tokens)

    @given(zipf_soups())
    @settings(max_examples=25, deadline=None)
    def test_naive_ground_truth_on_random_soups(self, tokens):
        naive = _fingerprint(
            _parse(_GRAMMARS["standard"], tokens, evaluation="naive")
        )
        fast = _fingerprint(_parse(_GRAMMARS["standard"], tokens))
        for key in _STRUCTURAL:
            assert fast[key] == naive[key]


def test_corpus_is_large_and_mixed():
    assert len(_TOKEN_SETS) >= 20
    assert len({label.rsplit("-", 1)[0] for label, _ in _TOKEN_SETS}) == len(
        DOMAINS
    )
