"""Semi-naive vs naive, and every shape of mask enforcement: one answer.

The semi-naive fix-point filters candidates through the columnar
:class:`~repro.parser.spatial_index.GeometryTable` and enforces
preferences through coverage-mask matrices of ``words`` ``uint64`` words
per instance (the largest token id, divided by 64, plus one), skipping
pairs an earlier pass already tested.  Each of these must be a pure
performance transformation: naive evaluation stays the ground truth for
trees and models, and the enforcement variants are compared on identical
geometry, byte for byte (trees, merged models, warnings, and every
``ParseStats`` counter):

* **id shift** -- the same tokens with every ``token.id`` increased by 64
  drive 2-word masks (by 200, 4-word masks in the oracle leg);
* **row fallback** -- with ``core._MASKED_MATRIX_CELLS`` at 0,
  enforcement computes one hit row per alive loser instead of the whole
  loser x winner matrix;
* **reference oracle** -- :func:`reference_enforce`, enforcement by
  definition (every alive loser against every alive winner through
  :meth:`Preference.applies`, no masks and no watermark), patched over
  the production ``enforce``.

Coverage comes from three directions: Zipf-profile generated forms across
every domain, the shipped grammars beyond the standard one, and
hypothesis-generated random token soups.  Two wide fuzz mutants pin the
exact counters of parses past 64 tokens, and the Zipf forms are checked
to reach both halves of enforcement's old/new split (old losers against
the winners past the watermark, new losers against the whole pool).
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

#: Shifting every token id by this much leaves no id below 64, so every
#: coverage mask of the parse is two words wide.
ID_SHIFT = 64

#: The oracle leg's id shifts: 1-, 2- and 4-word coverage masks.
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


def _parse_row_fallback(grammar, tokens, **config):
    """Parse with enforcement forced onto its row-at-a-time path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_core, "_MASKED_MATRIX_CELLS", 0)
        return _parse(grammar, tokens, **config)


def _assert_enforcement_paths_agree(grammar, tokens, **config):
    """1-word masks, 2-word masks, and row masks: one fingerprint."""
    shifted = shift_ids(tokens)
    assert all(token.id >= 64 for token in shifted)
    expected = _fingerprint(_parse(grammar, tokens, **config))
    assert _fingerprint(_parse(grammar, shifted, **config)) == expected
    assert _fingerprint(
        _parse_row_fallback(grammar, tokens, **config)
    ) == expected


@pytest.mark.parametrize(
    "label,tokens", _TOKEN_SETS, ids=[label for label, _ in _TOKEN_SETS]
)
def test_enforcement_paths_agree_on_zipf_forms(label, tokens):
    """Identical forests, counters, and merged models per generated form."""
    _assert_enforcement_paths_agree(_GRAMMARS["standard"], tokens)


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_enforcement_paths_agree_on_shipped_grammars(grammar_name):
    """Every shipped grammar, not just the standard one, gives 1-word
    and 2-word coverage masks the same answer."""
    grammar = _GRAMMARS[grammar_name]
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 8)]:
        expected = _fingerprint(_parse(grammar, tokens))
        assert _fingerprint(_parse(grammar, shift_ids(tokens))) == expected


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_row_fallback_agrees_on_shipped_grammars(grammar_name):
    """Every shipped grammar's preferences give the row-at-a-time
    fallback and the full loser x winner matrix the same answer."""
    grammar = _GRAMMARS[grammar_name]
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 8)]:
        expected = _fingerprint(_parse(grammar, tokens))
        assert _fingerprint(_parse_row_fallback(grammar, tokens)) == expected


def _recording_cores(patch):
    """Record every ``ParseCore`` the parser builds while *patch* is on."""
    cores = []
    core_class = parser_module.ParseCore

    def recording_core(*args, **kwargs):
        core = core_class(*args, **kwargs)
        cores.append(core)
        return core

    patch.setattr(parser_module, "ParseCore", recording_core)
    return cores


@pytest.mark.parametrize(
    "top_id,words", [(63, 1), (64, 2), (127, 2), (128, 3)],
    ids=["top-id-63", "top-id-64", "top-id-127", "top-id-128"],
)
def test_mask_width_follows_the_top_token_id(top_id, words):
    """A coverage mask is ``top_id // 64 + 1`` words wide, and whatever
    its width the parse gives the same answer."""
    _, tokens = max(_TOKEN_SETS, key=lambda pair: len(pair[1]))
    ids = [token.id for token in tokens]
    assert max(ids) - min(ids) <= 63
    stream = shift_ids(tokens, top_id - max(ids))
    assert min(token.id for token in stream) >= 0
    with pytest.MonkeyPatch.context() as patch:
        cores = _recording_cores(patch)
        result = _parse(_GRAMMARS["standard"], stream)
    assert [core.words for core in cores] == [words]
    assert result.stats.preference_applications > 0
    assert _fingerprint(result) == _fingerprint(
        _parse(_GRAMMARS["standard"], tokens)
    )


def reference_enforce(core, ordinal, preference, subsume, counters):
    """Enforcement by definition: each alive loser, in pool order, is
    rolled back when some alive winner beats it under
    :meth:`Preference.applies`.  No masks, no watermark."""
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
    """Every shipped grammar gives mask enforcement and the reference
    oracle one fingerprint, at 1, 2 and 4 words per mask."""
    grammar = _GRAMMARS[grammar_name]
    for _, tokens in _TOKEN_SETS:
        _assert_reference_agrees(grammar, tokens)


def test_zipf_forms_reach_both_halves_of_the_split():
    """The legs above compare the old/new split itself: on the Zipf
    forms some enforcement passes test old losers against the winners
    past the watermark and then new losers against the whole pool."""
    passes = []
    enforce = parser_core.enforce
    kill_losers = parser_core._kill_losers

    def recording_enforce(*args):
        passes.append([])
        enforce(*args)

    def recording_kill_losers(*args):
        passes[-1].append(args[6])  # the first winner column scanned
        kill_losers(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_core, "enforce", recording_enforce)
        patch.setattr(parser_module, "enforce", recording_enforce)
        patch.setattr(parser_core, "_kill_losers", recording_kill_losers)
        for _, tokens in _TOKEN_SETS:
            _parse(_GRAMMARS["standard"], tokens)
    split = [starts for starts in passes if len(starts) == 2]
    assert split
    assert all(old > 0 and new == 0 for old, new in split)


#: Exact counters of two wide fuzz mutants (``mutant(20040613, i)``,
#: first form, standard grammar): ``(tokens, instances_created,
#: combos_examined, instances_pruned, rollback_kills, trees)``.  Pinned
#: when the per-token winner index still enforced every parse past 64
#: tokens, so wide masks must reproduce its answers exactly.
_WIDE_MUTANTS = {
    96: (96, 5_265, 5_645, 758, 4_123, 1),
    244: (181, 11_904, 12_628, 1_777, 9_402, 1),
}


@pytest.mark.parametrize("index", sorted(_WIDE_MUTANTS))
def test_wide_mutants_keep_their_counters(index):
    _, html = mutant(20040613, index)
    document = parse_html(html)
    forms = document.forms
    tokens = FormTokenizer(document).tokenize(forms[0] if forms else None)
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
    with 1-word and 2-word coverage masks."""
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser_core, "_MASKED_MATRIX_CELLS", 0)
            assert outcome(tokens) == expected


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
    their 2-word masks straddle the boundary between the words.
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
