"""Section 5.1 performance claims.

The paper (on a 2003 Pentium IV): "given a query interface of size about 25
(number of tokens), parsing takes about 1 second.  Parsing 120 query
interfaces with average size 22 takes less than 100 seconds" -- parsing
time only, excluding tokenization and merging.

We reproduce the same two measurements: the per-interface parse time at
size ~25 and the batch parse time over 120 interfaces of average size ~22.
Absolute numbers on modern hardware are far smaller; the claim that holds
is the *feasibility shape*: near-interactive parses despite the
NP-complete worst case.
"""

from __future__ import annotations

import time

from benchmarks.conftest import bench_batch_count, record_metric, record_table
from repro.bench import generate_token_sets
from repro.grammar.standard import build_standard_grammar
from repro.parser.parser import BestEffortParser, ParserConfig


def _token_sets(target_count, size_low, size_high, base_seed):
    """Tokenized forms whose sizes fall within the requested band.

    Delegates to :func:`repro.bench.generate_token_sets` so ``repro
    bench`` and the pytest benchmarks measure the identical workload.
    """
    return generate_token_sets(target_count, size_low, size_high, base_seed)


def test_parse_time_single_interface(benchmark):
    """One interface of ~25 tokens: the paper's 'about 1 second' case."""
    (tokens,) = _token_sets(1, 23, 27, base_seed=60_000)
    parser = BestEffortParser(build_standard_grammar())

    result = benchmark(parser.parse, tokens)
    assert result.trees
    benchmark.extra_info["tokens"] = len(tokens)
    record_table(
        "Section 5.1: single-interface parse time",
        f"interface size: {len(tokens)} tokens\n"
        f"paper: ~1 s on 2003 hardware; measured mean reported by "
        f"pytest-benchmark above (must be well under 1 s)",
    )


def test_parse_time_scaling(benchmark):
    """Parse time vs interface size.

    Visual-language membership is NP-complete (Section 5.1); this sweep
    shows the preference machinery holding growth to something usable
    across the realistic size band.
    """
    bands = ((8, 12), (13, 18), (19, 26), (27, 36), (37, 52))
    parser = BestEffortParser(build_standard_grammar())
    samples = {
        band: _token_sets(4, band[0], band[1], base_seed=62_000 + i * 5_000)
        for i, band in enumerate(bands)
    }

    def run():
        rows = []
        for band, token_sets in samples.items():
            if not token_sets:
                continue
            started = time.perf_counter()
            for tokens in token_sets:
                parser.parse(tokens)
            elapsed = time.perf_counter() - started
            mean_size = sum(len(t) for t in token_sets) / len(token_sets)
            rows.append((mean_size, 1000 * elapsed / len(token_sets)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["avg tokens   ms/interface"]
    for mean_size, ms in rows:
        lines.append(f"{mean_size:10.1f}   {ms:10.1f}")
    lines.append("growth stays polynomial-ish in the realistic band; the "
                 "NP-complete worst case never materializes under pruning")
    record_table("Section 5.1 (extended): parse time vs interface size",
                 "\n".join(lines))
    assert len(rows) >= 3
    # Largest band stays interactive.
    assert rows[-1][1] < 2_000.0


def test_parse_time_batch_120(benchmark):
    """120 interfaces of average size ~22: the paper's '<100 s' case.

    Best-of-3 rounds: wall-clock noise on shared hosts routinely exceeds
    30%, so the recorded metric keeps the best round -- the number
    closest to what the code costs, not what the neighbors cost.
    """
    batch_count = bench_batch_count()
    token_sets = _token_sets(batch_count, 14, 32, base_seed=61_000)
    average_size = sum(len(t) for t in token_sets) / len(token_sets)
    parser = BestEffortParser(build_standard_grammar())
    walls = []

    def parse_all():
        started = time.perf_counter()
        for tokens in token_sets:
            parser.parse(tokens)
        walls.append(time.perf_counter() - started)
        return walls[-1]

    benchmark.pedantic(parse_all, rounds=3, iterations=1)
    elapsed = min(walls)
    record_table(
        "Section 5.1: batch parse time (120 interfaces)",
        f"interfaces: {len(token_sets)}, average size: {average_size:.1f} tokens\n"
        f"measured: {elapsed:.2f} s total "
        f"({1000 * elapsed / len(token_sets):.1f} ms/interface, best of "
        f"{len(walls)} rounds)\n"
        f"paper: < 100 s on 2003 hardware",
    )
    benchmark.extra_info["interfaces"] = len(token_sets)
    benchmark.extra_info["average_size"] = round(average_size, 1)
    benchmark.extra_info["total_seconds"] = round(elapsed, 3)
    record_metric("batch120.seminaive.wall_seconds", round(elapsed, 4))
    record_metric(
        "batch120.seminaive.wall_rounds", [round(w, 4) for w in walls]
    )
    record_metric("batch120.average_size", round(average_size, 1))
    record_metric("batch120.forms", len(token_sets))
    assert len(token_sets) == batch_count
    assert 16 <= average_size <= 28
    assert elapsed < 100.0


def test_parse_time_batch_seminaive_vs_naive(benchmark):
    """Semi-naive fix-point vs the legacy naive loop on the 120 corpus.

    The semi-naive evaluator (frontier deltas + declarative spatial
    bounds + geometry-table prefiltering) is a pure performance
    transformation -- the equivalence suite pins identical output -- so
    the whole difference here is enumeration avoided.
    """
    token_sets = _token_sets(bench_batch_count(), 14, 32, base_seed=61_000)
    grammar = build_standard_grammar()

    def run(mode):
        parser = BestEffortParser(grammar, ParserConfig(evaluation=mode))
        combos = instances = 0
        started = time.perf_counter()
        for tokens in token_sets:
            stats = parser.parse(tokens).stats
            combos += stats.combos_examined
            instances += stats.instances_created
        return time.perf_counter() - started, combos, instances

    naive_seconds, naive_combos, _ = run("naive")
    fast_seconds, fast_combos, fast_instances = benchmark.pedantic(
        lambda: run("seminaive"), rounds=1, iterations=1
    )
    combo_ratio = naive_combos / max(1, fast_combos)
    speedup = naive_seconds / max(1e-9, fast_seconds)
    record_metric("batch120.naive.wall_seconds", round(naive_seconds, 4))
    record_metric("batch120.naive.combos_examined", naive_combos)
    record_metric("batch120.seminaive.combos_examined", fast_combos)
    record_metric("batch120.seminaive.instances_created", fast_instances)
    record_metric("batch120.combo_reduction", round(combo_ratio, 2))
    record_metric("batch120.singleprocess_speedup", round(speedup, 2))
    record_metric("batch120.forms", len(token_sets))
    record_table(
        "Semi-naive vs naive fix-point (120 interfaces)",
        f"combos examined: {naive_combos} naive -> {fast_combos} "
        f"semi-naive ({combo_ratio:.1f}x fewer)\n"
        f"wall time: {naive_seconds:.2f} s naive -> {fast_seconds:.2f} s "
        f"semi-naive ({speedup:.1f}x faster, single process)",
    )
    # Acceptance bars for the rewrite.
    assert combo_ratio >= 3.0
    assert speedup >= 2.0
