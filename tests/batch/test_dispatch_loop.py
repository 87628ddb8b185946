"""One dispatch loop for every ``jobs`` value: ``jobs=1`` is a pool of one.

Serial and pooled runs share signing, dedupe, the parent-side cache,
retries and record assembly, so they must return the same records --
models, counters, warnings, flags and traces -- and the same report
counters on a corpus with repeats.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.batch import BatchExtractor
from repro.batch import extractor as batch_extractor
from repro.cache import ExtractionCache
from repro.datasets.repository import build_basic
from repro.evaluation.harness import EvaluationHarness
from repro.observability.metrics import MetricsRegistry
from repro.semantics.serialize import model_to_dict

_DISTINCT = [source.html for source in build_basic(2)]
#: Six distinct pages, then exact repeats of three of them.
_CORPUS = _DISTINCT + [_DISTINCT[0], _DISTINCT[2], _DISTINCT[5]]


def job_extract(extractor, html):
    return extractor.extract_detailed(html)


def _record_view(record):
    trace = record.trace
    return {
        "model": model_to_dict(record.model),
        "counters": record.stats.counters(),
        "warnings": record.warnings,
        "cached": record.cached,
        "deduped": record.deduped,
        "spans": (
            None if trace is None
            else [span["name"] for span in trace["spans"]]
        ),
    }


def _report_view(report):
    assert not report.errors
    return (
        [_record_view(record) for record in report.records],
        (report.cache_hits, report.cache_misses, report.dedupe_collapsed),
    )


def _passes(jobs, cache, passes):
    with BatchExtractor(jobs=jobs, cache=cache, oversubscribe=True) as batch:
        return [_report_view(batch.extract_html(_CORPUS)) for _ in range(passes)]


class TestSerialMatchesPooled:
    def test_cache_off(self):
        serial = _passes(1, False, 1)
        assert serial == _passes(2, False, 1)
        (records, counts), = serial
        assert counts == (0, 0, 3)
        assert [r["deduped"] for r in records] == [False] * 6 + [True] * 3

    def test_cache_on_over_two_passes(self):
        serial = _passes(1, True, 2)
        assert serial == _passes(2, True, 2)
        (cold, cold_counts), (warm, warm_counts) = serial
        assert cold_counts == (0, 6, 3)
        assert warm_counts == (6, 0, 3)
        assert all(record["cached"] for record in warm)
        # Every hit carries a trace: one cache span.
        assert all(record["spans"] == ["cache"] for record in warm)


class TestSubmitCustom:
    def test_serial_submission_comes_back_finished(self):
        batch = BatchExtractor(jobs=1)
        future = batch.submit_custom(job_extract, _DISTINCT[0])
        assert future.done()
        record = future.result()
        assert record.ok
        expected = batch.extract_html([_DISTINCT[0]]).records[0]
        assert model_to_dict(record.model) == model_to_dict(expected.model)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_usable_cores_is_read_once_per_extractor(self, jobs, monkeypatch):
        """The worker clamp is sized at construction, not per submission:
        ``usable_cores`` re-reads the affinity mask and cgroup files."""
        real = batch_extractor.usable_cores
        calls = []

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(batch_extractor, "usable_cores", counting)
        with BatchExtractor(jobs=jobs) as batch:
            for html in _DISTINCT[:3]:
                assert batch.submit_custom(job_extract, html).result().ok
        assert len(calls) == 1


class TestWarm:
    def test_pool_workers_exist_after_warm(self):
        with BatchExtractor(jobs=2, oversubscribe=True) as batch:
            assert batch.warm() == 2
            processes = list(batch._pool._processes.values())
            assert len(processes) == 2
            assert all(process.is_alive() for process in processes)

    def test_serial_warm_forks_nothing(self):
        before = set(multiprocessing.active_children())
        with BatchExtractor(jobs=1) as batch:
            assert batch.warm() == 1
            assert set(multiprocessing.active_children()) <= before


class TestHarnessOnCachedReevaluation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_pass_counts_one_ok_per_source(self, jobs):
        dataset = build_basic(1)
        registry = MetricsRegistry()
        harness = EvaluationHarness(
            jobs=jobs, cache=ExtractionCache(), metrics=registry
        )
        for passes in (1, 2):
            harness.evaluate(dataset)
            assert registry.counter("extract.ok") == passes * len(dataset.sources)
        assert registry.counter("batch.cache.hits") == len(dataset.sources)
