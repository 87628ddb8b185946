"""``repro bench``: the parse-stage benchmark reports what it measured."""

from __future__ import annotations

import gc
import re

from repro import bench
from repro.grammar.standard import build_standard_grammar
from repro.parser.parser import BestEffortParser, ParserConfig

_TOKEN_SETS = bench.generate_token_sets(3)

#: Exact work counters of the standard grammar over the 120 batch forms.
#: The parse is deterministic, so these are the benchmark's work, not a
#: tolerance band: a change that moves any of them must say why in its
#: description (``spatial_memo_hits`` is always 0 and left out).
_BATCH120_COUNTERS = {
    "instances_created": 10_061,
    "combos_examined": 22_606,
    "instances_pruned": 3_598,
    "rollback_kills": 36,
    "fixpoint_rounds": 5_180,
    "combos_prefiltered": 45_731,
    "truncated": 0,
}


def test_corpus_is_the_batch120_band():
    assert len(_TOKEN_SETS) == 3
    for tokens in _TOKEN_SETS:
        assert bench.BATCH_SIZE_LOW <= len(tokens) <= bench.BATCH_SIZE_HIGH


def test_default_budget_truncates_no_form():
    result = bench.run_parse_bench(_TOKEN_SETS, repeats=1)
    assert result.forms == 3
    assert result.truncated == 0
    assert result.instances_created > 0
    assert "truncated forms: 0" in result.describe()


def test_batch120_work_counters_are_exact():
    parser = BestEffortParser(build_standard_grammar())
    totals = dict.fromkeys(_BATCH120_COUNTERS, 0)
    for tokens in bench.generate_token_sets(bench.BATCH_FORMS):
        counters = parser.parse(tokens).stats.counters()
        for name in totals:
            totals[name] += counters[name]
    assert totals == _BATCH120_COUNTERS


def test_truncated_forms_are_counted(monkeypatch):
    """A wall time that stopped at a budget cap says so."""

    def tiny_budget_parser(grammar):
        return BestEffortParser(grammar, ParserConfig(max_instances=10))

    monkeypatch.setattr(bench, "BestEffortParser", tiny_budget_parser)
    result = bench.run_parse_bench(_TOKEN_SETS, repeats=2)
    assert result.truncated == 3
    assert len(result.rounds) == 2
    assert "truncated forms: 3" in result.describe()


def test_profile_header_reports_the_collector():
    """cProfile hides collections inside whichever frame allocated, so
    the header counts them through a ``gc.callbacks`` hook."""
    hooks = list(gc.callbacks)
    report = bench.profile_parse(_TOKEN_SETS, top=5)
    assert gc.callbacks == hooks
    header = report.splitlines()[:2]
    assert header[0].startswith("# repro bench profile: 3 interfaces")
    match = re.fullmatch(
        r"# cyclic GC: (\d+) collections, (\d+\.\d\d) ms .*", header[1]
    )
    assert match is not None, header[1]


def test_collector_tally_counts_collections():
    tally = bench.CollectorTally()
    gc.callbacks.append(tally)
    try:
        gc.collect()
        gc.collect(0)
    finally:
        gc.callbacks.remove(tally)
    assert tally.collections == 2
    assert tally.seconds > 0.0
    gc.collect()
    assert tally.collections == 2
