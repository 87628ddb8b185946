"""Tests of the benchmark's own helpers (no timing assertions)."""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import corpus, harness, workloads
from repro import FormExtractor
from repro.html.parser import parse_html

ROOT = Path(__file__).resolve().parents[2]


# -- quantiles ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_its_band():
    # p90 averages ranks 87.5..92.5 % of the samples; 134 samples leave
    # exactly ten beyond rank 124, 133 leave nine.
    assert harness.percentile([float(i) for i in range(134)], 90) == (
        sum(range(117, 124)) / 7
    )
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile([float(i) for i in range(133)], 90)
    # p99's band is 98.75..99.25 %: it needs 1,334 samples.
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile([float(i) for i in range(1333)], 99)
    assert harness.percentile([float(i) for i in range(1334)], 99) == (
        sum(range(1317, 1324)) / 7
    )


def test_percentile_smooths_a_gap_between_clusters():
    # Half the samples at 10, half at 20: the median's band straddles
    # the gap and moves by one sample, not by the whole gap.
    values = [10.0] * 50 + [20.0] * 50
    shifted = [10.0] * 49 + [20.0] * 51
    assert abs(
        harness.percentile(values, 50) - harness.percentile(shifted, 50)
    ) <= 10.0 / 25


def test_percentile_counts_failures_as_infinite():
    values = [1.0] * 80 + [float("inf")] * 120
    assert harness.percentile(values, 10) == 1.0
    assert harness.percentile(values, 50) == float("inf")


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        harness.percentile([1.0] * 50, 100)


# -- calibration scaling -----------------------------------------------------


def test_window_factor_is_reference_over_mean_slice():
    window = harness.Window(index=0, slice_before=0.002, slice_after=0.004)
    assert window.factor == pytest.approx(
        harness.REFERENCE_SLICE_SECONDS / 0.003
    )


def test_clock_scales_each_window_by_its_own_factor():
    clock = harness.HostClock()
    slow = harness.Window(0, 0.002, 0.002, start=0.0, end=1.0, samples=[0.5, 0.5])
    fast = harness.Window(1, 0.001, 0.001, start=1.0, end=1.5, samples=[0.5])
    clock.windows = [slow, fast]
    reference = harness.REFERENCE_SLICE_SECONDS
    assert clock.latencies() == pytest.approx(
        [0.5 * reference / 0.002] * 2 + [0.5 * reference / 0.001]
    )
    assert clock.latencies(normalised=False) == [0.5, 0.5, 0.5]
    totals = clock.totals()
    assert totals["raw"] == pytest.approx(1.5)
    assert totals["normalised"] == pytest.approx(
        1.0 * reference / 0.002 + 0.5 * reference / 0.001
    )


def test_window_brackets_work_with_two_calibrations():
    clock = harness.HostClock()
    first = clock._last_slice
    with clock.window() as window:
        window.samples.append(0.1)
    assert window.slice_before == first
    assert window.slice_after > 0
    assert clock.windows == [window]


def test_calibration_refuses_a_second_thread():
    release = threading.Event()
    worker = threading.Thread(target=release.wait, daemon=True)
    worker.start()
    try:
        with pytest.raises(RuntimeError, match="single-threaded"):
            harness.calibrate()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    # The OS may list a joined thread for a moment longer.
    deadline = time.monotonic() + 10
    while harness.thread_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert harness.calibrate() > 0


# -- tracing -----------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = harness.Tracer()
    tracer.spans = [
        harness.Span("page", 1, None, 0.0, 10.0),
        harness.Span("parser", 1, 0, 1.0, 7.0),
        harness.Span("gc", 1, 1, 5.0, 6.5),
        harness.Span("merger", 1, 0, 7.0, 8.0),
    ]
    own = tracer.self_seconds(0, 4)
    assert own == pytest.approx(
        {"page": 3.0, "parser": 4.5, "gc": 1.5, "merger": 1.0}
    )


def test_collections_become_children_of_the_open_span():
    import gc

    tracer = harness.Tracer()
    with tracer.collecting():
        with tracer.span("parser", "page-1"):
            gc.collect()
    names = [span.name for span in tracer.spans]
    assert names[0] == "parser" and "gc" in names
    collected = [span for span in tracer.spans if span.name == "gc"]
    assert all(span.parent == 0 and span.item == "page-1" for span in collected)


# -- the serve sequence ------------------------------------------------------


def _small_corpus() -> list[corpus.Page]:
    pages = corpus.typical_pages()
    return pages[: 2 * corpus.HOT_PAGES]


def test_serve_cycle_has_an_exact_hit_share():
    pages = _small_corpus()
    hot = corpus.serve_hot_set(pages, seed=3)
    requests = corpus.serve_cycle(pages, hot, seed=3, cycle=0)
    hits = [request for request in requests if request.hot]
    misses = [request for request in requests if not request.hot]
    assert len(misses) == len(pages)
    assert len(hits) == corpus.HITS_PER_MISS * len(misses)
    # Every block of four holds exactly one never-seen page.
    for block in range(0, len(requests), corpus.HITS_PER_MISS + 1):
        window = requests[block:block + corpus.HITS_PER_MISS + 1]
        assert sum(not request.hot for request in window) == 1
    hot_html = {page.html for page in hot}
    assert {request.page.html for request in hits} <= hot_html


def test_never_seen_pages_are_unique_across_cycles():
    pages = _small_corpus()
    hot = corpus.serve_hot_set(pages, seed=3)
    seen = {page.html for page in hot}
    for cycle in range(3):
        for request in corpus.serve_cycle(pages, hot, seed=3, cycle=cycle):
            if not request.hot:
                assert request.page.html not in seen
                seen.add(request.page.html)
    assert len(seen) == len(hot) + 3 * len(pages)


def test_serve_sequence_is_a_function_of_the_seed():
    pages = _small_corpus()

    def sequence(seed: int) -> bytes:
        hot = corpus.serve_hot_set(pages, seed)
        return b"".join(
            request.page.html.encode()
            for request in corpus.serve_cycle(pages, hot, seed, 0)
        )

    assert sequence(5) == sequence(5)
    assert sequence(5) != sequence(6)


def test_marked_page_extracts_like_the_original():
    page = corpus.typical_pages()[0]
    marked = corpus.mark(page, "s1-new0")
    assert marked.html != page.html
    extractor = FormExtractor()
    original = extractor.extract_detailed(page.html)
    again = extractor.extract_detailed(marked.html)
    assert corpus.model_digest([again.model]) == corpus.model_digest(
        [original.model]
    )
    assert (
        again.parse.stats.instances_created
        == original.parse.stats.instances_created
    )


# -- the stacked page builder ------------------------------------------------


def test_stacked_page_has_one_form_and_the_union_of_truths():
    first, second = corpus.batch120_sources()[:2]
    page = corpus.stack_forms(first, second)
    assert page.html.count("<form") == 1
    assert len(parse_html(page.html).forms) == 1
    assert page.truth == first.truth + second.truth
    assert len(corpus.stacked_pages()) == len(corpus.BATCH_OFFSETS) // 2


def test_batch120_is_the_repo_bench_corpus():
    from repro.bench import BATCH_FORMS, BATCH_SEED

    assert corpus.BATCH_BASE_SEED == BATCH_SEED
    assert len(corpus.BATCH_OFFSETS) == BATCH_FORMS


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_lists_every_reported_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {
        metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]
    } == workloads.END_TO_END
    assert {
        metric["name"]: metric["unit"] for metric in benchmark["per_layer"]
    } == workloads.PER_LAYER
    names = [workload["name"] for workload in benchmark["workloads"]]
    assert names == ["typical", "stacked", "serve"]
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
