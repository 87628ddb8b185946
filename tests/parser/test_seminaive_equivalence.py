"""Semi-naive vs naive fix-point equivalence.

The semi-naive evaluator (frontier deltas + declarative spatial bounds +
geometry-table prefiltering) must be a pure performance transformation: on
every input it has to produce the same instances in the same order as the
original full-product-with-dedup loop, hence identical maximal trees and an
identical merged semantic model.  These tests check that end to end over
generated forms from every domain, plus the truncation paths and the
conservativeness of the declarative bounds themselves.
"""

from __future__ import annotations

import pytest

from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.grammar.standard import build_standard_grammar
from repro.html.parser import parse_html
from repro.merger import merge_parse_result
from repro.parser.parser import BestEffortParser, ParserConfig
from repro.parser.spatial_index import h_allows, v_allows

FORMS_PER_DOMAIN = 4  # 8 domains -> 32 generated forms

_PROFILE = GeneratorProfile(min_conditions=2, max_conditions=7)


def _generate_token_sets():
    """A mixed corpus: FORMS_PER_DOMAIN tokenized forms per domain."""
    from repro.tokens.tokenizer import FormTokenizer

    token_sets = []
    for offset, name in enumerate(sorted(DOMAINS)):
        generator = SourceGenerator(DOMAINS[name], _PROFILE)
        for index in range(FORMS_PER_DOMAIN):
            source = generator.generate(seed=9_000 + offset * 100 + index)
            document = parse_html(source.html)
            forms = document.forms
            tokenizer = FormTokenizer(document)
            tokens = tokenizer.tokenize(forms[0] if forms else None)
            token_sets.append((f"{name}-{index}", tokens))
    return token_sets


_TOKEN_SETS = _generate_token_sets()
_GRAMMAR = build_standard_grammar()


def _fingerprint(result):
    """Everything that must match between evaluation modes."""
    model = merge_parse_result(result)
    return {
        "trees": [tree.pretty() for tree in result.trees],
        "instances_created": result.stats.instances_created,
        "instances_alive": result.stats.instances_alive,
        "truncated": result.stats.truncated,
        # uid values are globally monotonic across parses; creation ORDER
        # plus symbol plus liveness is the portable identity.
        "creation_order": [
            (inst.symbol, inst.alive)
            for inst in result.instances
            if not inst.is_terminal
        ],
        "conditions": [str(condition) for condition in model.conditions],
    }


@pytest.mark.parametrize(
    "label,tokens", _TOKEN_SETS, ids=[label for label, _ in _TOKEN_SETS]
)
def test_modes_agree_on_generated_forms(label, tokens):
    """Byte-identical forests, accounting, and merger output per form."""
    naive = BestEffortParser(_GRAMMAR, ParserConfig(evaluation="naive"))
    seminaive = BestEffortParser(
        _GRAMMAR, ParserConfig(evaluation="seminaive")
    )
    base = _fingerprint(naive.parse(tokens))
    fast = _fingerprint(seminaive.parse(tokens))
    assert fast == base


def test_corpus_is_large_and_mixed():
    assert len(_TOKEN_SETS) >= 30
    assert len({label.rsplit("-", 1)[0] for label, _ in _TOKEN_SETS}) == len(
        DOMAINS
    )


def test_seminaive_examines_fewer_combos():
    """The point of the rewrite: strictly less enumeration, never more."""
    naive_total = fast_total = prefiltered = 0
    for _, tokens in _TOKEN_SETS:
        naive = BestEffortParser(_GRAMMAR, ParserConfig(evaluation="naive"))
        fast = BestEffortParser(_GRAMMAR, ParserConfig(evaluation="seminaive"))
        naive_total += naive.parse(tokens).stats.combos_examined
        result = fast.parse(tokens)
        fast_total += result.stats.combos_examined
        prefiltered += result.stats.combos_prefiltered
    assert fast_total < naive_total
    assert prefiltered > 0
    # The acceptance bar for the optimization is >=3x on a mixed corpus.
    assert naive_total / max(1, fast_total) >= 3.0


def test_instance_budget_truncation_is_identical():
    """Instance-budget exhaustion hits both modes at the same point.

    Instance creation order is identical in both modes, so truncating on
    ``max_instances`` must yield the same partial forest.
    """
    _, tokens = max(_TOKEN_SETS, key=lambda pair: len(pair[1]))
    for budget in (10, 40, 120):
        config = ParserConfig(max_instances=budget)
        naive = BestEffortParser(
            _GRAMMAR, ParserConfig(max_instances=budget, evaluation="naive")
        ).parse(tokens)
        fast = BestEffortParser(_GRAMMAR, config).parse(tokens)
        assert naive.stats.truncated and fast.stats.truncated
        assert _fingerprint(fast) == _fingerprint(naive)


def test_combo_budget_truncation_invariants():
    """Combo-budget truncation may diverge (prefiltered combinations cost
    nothing in semi-naive mode) but every structural invariant must hold."""
    _, tokens = max(_TOKEN_SETS, key=lambda pair: len(pair[1]))
    for mode in ("naive", "seminaive"):
        config = ParserConfig(max_combos_per_instance=2, evaluation=mode)
        result = BestEffortParser(_GRAMMAR, config).parse(tokens)
        stats = result.stats
        alive = [
            inst
            for inst in result.instances
            if inst.alive and not inst.is_terminal
        ]
        assert stats.instances_alive == len(alive)
        assert stats.combos_examined <= config.max_combos
        assert stats.instances_created <= config.max_instances
        for tree in result.trees:
            assert tree.alive


class _BoundsAuditParser(BestEffortParser):
    """Naive-mode parser asserting the declarative bounds are conservative.

    Every combination the *constraint* accepts must also pass the
    production's declarative ``bounds`` -- otherwise the semi-naive
    pre-filter could drop a real instance.
    """

    def __init__(self, grammar):
        super().__init__(grammar, ParserConfig(evaluation="naive"))
        self.audited = 0

    def _apply_naive(self, production, state, seen_keys, cap, stats, budget,
                     guard=None):
        created = super()._apply_naive(
            production, state, seen_keys, cap, stats, budget, guard
        )
        for instance in created:
            combo = instance.children
            for i, j, h_spec, v_spec in production.bounds:
                anchor, candidate = combo[i].bbox, combo[j].bbox
                assert h_allows(h_spec, anchor, candidate) and v_allows(
                    v_spec, anchor, candidate
                ), (
                    f"{production.name} bound ({i},{j}) rejects a "
                    f"constraint-accepted combination"
                )
                self.audited += 1
        return created


def test_declarative_bounds_are_conservative():
    """No bound may reject a combination the spatial constraint accepts."""
    parser = _BoundsAuditParser(_GRAMMAR)
    for _, tokens in _TOKEN_SETS[:: max(1, len(_TOKEN_SETS) // 12)]:
        parser.parse(tokens)
    assert parser.audited > 100
