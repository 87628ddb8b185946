"""Fault tolerance of the batch engine: timeouts, retries, pool recovery.

The contract under test: *a worker never lets one bad form poison the
batch*.  Faults are injected through module-level custom jobs (picklable
by reference) that crash the worker process, hang past the watchdog, or
fail transiently -- the batch must complete with exactly the affected
records marked ``error`` and everything else intact and in input order.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

import repro.batch.extractor as batch_module
from repro.batch import BatchExtractor, BatchStream
from repro.layout.engine import layout_document
from tests.fuzz.mutator import mutant

TINY_FORM = "<form>Title: <input name=title size=12></form>"
OTHER_FORM = "<form>Author: <input name=author size=12></form>"


def _form_body(html):
    start = html.index(">", html.index("<form")) + 1
    return html[start:html.index("</form>")]


#: Four wide fuzz mutants in one form, 1,858 tokens that take about 1.5 s
#: to parse in full (one of them alone parses in about 0.1 s).
WIDE_FORM = "<html><body><form>{}</form></body></html>".format("".join(
    f"<div>{_form_body(mutant(20040613, index)[1])}</div>"
    for index in (112, 203, 307, 397)
))


# -- injectable jobs (module-level: they must pickle by reference) ---------------


def job_extract(extractor, html):
    return extractor.extract_detailed(html)


def job_crash(extractor, arg):
    html, marker = arg
    if marker == "crash":
        os._exit(137)  # simulated OOM kill / segfault
    return extractor.extract_detailed(html)


def job_hang(extractor, arg):
    html, marker = arg
    if marker == "hang":
        time.sleep(30)
    return extractor.extract_detailed(html)


def job_transient(extractor, arg):
    """Fails until its sentinel file exists (state survives retries
    wherever they run: any worker process or the parent)."""
    html, sentinel = arg
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("attempted")
        raise ConnectionError("transient network hiccup")
    return extractor.extract_detailed(html)


def job_always_fails(extractor, arg):
    raise ValueError(f"permanently broken: {arg}")


class TestWorkerCrashRecovery:
    def test_crash_costs_one_record_not_the_batch(self):
        items = [
            (TINY_FORM, "ok"),
            (TINY_FORM, "crash"),
            (OTHER_FORM, "ok"),
            (TINY_FORM, "ok"),
        ]
        report = BatchExtractor(
            jobs=2, max_pool_restarts=1, retry_backoff=0
        ).extract_custom(job_crash, items)
        assert [record.index for record in report.records] == [0, 1, 2, 3]
        assert [record.ok for record in report.records] == [
            True, False, True, True,
        ]
        assert "WorkerCrash" in report.records[1].error
        assert report.pool_restarts >= 1
        assert report.degraded is True
        for record in report.records:
            if record.ok:
                assert record.model is not None
                assert len(record.model.conditions) == 1

    def test_multiple_crashers_are_each_pinned(self):
        items = [
            (TINY_FORM, "crash"),
            (TINY_FORM, "ok"),
            (TINY_FORM, "crash"),
            (OTHER_FORM, "ok"),
        ]
        report = BatchExtractor(
            jobs=2, max_pool_restarts=0, retry_backoff=0
        ).extract_custom(job_crash, items)
        assert [record.ok for record in report.records] == [
            False, True, False, True,
        ]
        assert all(
            "WorkerCrash" in record.error for record in report.errors
        )
        # max_pool_restarts=0 degrades immediately to the isolation pool.
        assert report.degraded is True

    def test_crash_then_retry_consumes_attempts(self):
        items = [(TINY_FORM, "crash")]
        report = BatchExtractor(
            jobs=2, max_pool_restarts=0, retries=1, retry_backoff=0
        ).extract_custom(job_crash, items)
        (record,) = report.records
        assert not record.ok
        assert record.attempts == 2


class TestTimeouts:
    def test_hung_form_times_out_without_killing_the_pool(self):
        items = [
            (TINY_FORM, "ok"),
            (TINY_FORM, "hang"),
            (OTHER_FORM, "ok"),
        ]
        started = time.perf_counter()
        report = BatchExtractor(jobs=2, timeout=1.0).extract_custom(
            job_hang, items
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10  # nowhere near the 30s hang
        assert [record.ok for record in report.records] == [True, False, True]
        assert report.records[1].error.startswith("Timeout:")
        assert "1" in report.records[1].error
        # The watchdog aborts the form, not the worker: no pool restart.
        assert report.pool_restarts == 0
        assert report.degraded is False

    def test_serial_path_times_out_too(self):
        items = [(TINY_FORM, "hang"), (TINY_FORM, "ok")]
        report = BatchExtractor(jobs=1, timeout=0.5).extract_custom(
            job_hang, items
        )
        assert [record.ok for record in report.records] == [False, True]
        assert report.records[0].error.startswith("Timeout:")

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            BatchExtractor(timeout=0)
        with pytest.raises(ValueError):
            BatchExtractor(timeout=-1.0)

    @pytest.mark.parametrize("resilience", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("leg", ["main", "worker", "pool"])
    def test_deadline_outcome_ignores_thread_and_jobs(self, leg, resilience):
        # One deadline policy: the guard's deadline decides, on any
        # thread and for any jobs value.
        def run():
            with BatchExtractor(
                jobs=2 if leg == "pool" else 1,
                timeout=0.3,
                resilience=resilience,
            ) as batch:
                return batch.extract_html([WIDE_FORM]).records[0]

        if leg == "worker":
            box = []
            thread = threading.Thread(target=lambda: box.append(run()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            (record,) = box
        else:
            record = run()
        if resilience:
            assert record.ok, record.error
            assert any(
                "degraded to capped" in warning
                and "deadline budget hit" in warning
                for warning in record.warnings
            ), record.warnings
        else:
            assert record.error.startswith("Timeout:")

    @pytest.mark.parametrize("resilience", [False, True], ids=["off", "on"])
    def test_backstop_stops_a_stage_that_ignores_the_guard(
        self, monkeypatch, resilience
    ):
        def stalled_layout(*args, **kwargs):
            time.sleep(5)  # never checks the guard

        monkeypatch.setattr("repro.extractor.layout_document", stalled_layout)
        assert threading.current_thread() is threading.main_thread()
        started = time.perf_counter()
        report = BatchExtractor(
            jobs=1, timeout=0.1, resilience=resilience
        ).extract_html([TINY_FORM])
        elapsed = time.perf_counter() - started
        (record,) = report.records
        # The backstop fires well after the cooperative deadline (3 x
        # timeout, at least 1 s), so the two never race for the outcome.
        assert elapsed >= 0.3
        if resilience:
            assert record.ok, record.error
            assert record.trace["tags"]["degrade.level"] == "minimal"
        else:
            assert record.error.startswith("Timeout:")

    def test_backstop_leaves_a_tiny_deadline_to_the_guard(self, monkeypatch):
        # 3 x a 5 ms deadline would fire inside a stage that overruns it
        # by 0.1 s and then finishes; the 1 s floor lets the guard's
        # deadline decide the outcome instead.
        def slow_layout(*args, **kwargs):
            time.sleep(0.1)
            return layout_document(*args, **kwargs)

        monkeypatch.setattr("repro.extractor.layout_document", slow_layout)
        report = BatchExtractor(
            jobs=1, timeout=0.005, resilience=True
        ).extract_html([TINY_FORM])
        (record,) = report.records
        assert record.ok, record.error
        assert any(
            "deadline budget hit" in warning for warning in record.warnings
        ), record.warnings
        assert not any(
            "ExtractionTimeout" in warning for warning in record.warnings
        ), record.warnings


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_recovers_on_retry(self, jobs, tmp_path):
        sentinel = str(tmp_path / f"sentinel-{jobs}")
        report = BatchExtractor(
            jobs=jobs, retries=2, retry_backoff=0
        ).extract_custom(job_transient, [(TINY_FORM, sentinel)])
        (record,) = report.records
        assert record.ok
        assert record.attempts == 2
        assert len(record.model.conditions) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permanent_failure_exhausts_attempts(self, jobs):
        report = BatchExtractor(
            jobs=jobs, retries=2, retry_backoff=0
        ).extract_custom(job_always_fails, ["x"])
        (record,) = report.records
        assert not record.ok
        assert record.attempts == 3
        assert "permanently broken" in record.error

    def test_no_retries_by_default(self):
        report = BatchExtractor(jobs=1).extract_custom(job_always_fails, ["x"])
        assert report.records[0].attempts == 1

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            BatchExtractor(retries=-1)
        with pytest.raises(ValueError):
            BatchExtractor(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            BatchExtractor(max_pool_restarts=-1)


class TestSerialPathIsolation:
    def test_serial_path_leaves_worker_global_alone(self):
        # The jobs=1 path must use a local extractor; the module global is
        # strictly worker-side state (a nested or concurrent batch in this
        # process would otherwise see a clobbered extractor).
        before = batch_module._worker_extractor
        report = BatchExtractor(jobs=1).extract_html([TINY_FORM])
        assert batch_module._worker_extractor is before
        assert report.records[0].ok

    def test_nested_serial_batches_do_not_interfere(self):
        outer = BatchExtractor(jobs=1)
        inner_report = {}

        def run_outer():
            stream = outer.iter_html([TINY_FORM, OTHER_FORM])
            first = next(stream)
            # A second batch runs while the first is mid-iteration.
            inner_report["report"] = BatchExtractor(jobs=1).extract_html(
                [OTHER_FORM]
            )
            rest = list(stream)
            return [first, *rest]

        records = run_outer()
        assert [record.ok for record in records] == [True, True]
        assert inner_report["report"].records[0].ok

    def test_serial_extractor_is_reused_across_runs(self):
        batch = BatchExtractor(jobs=1)
        batch.extract_html([TINY_FORM])
        first = batch._serial_extractor
        batch.extract_html([OTHER_FORM])
        assert batch._serial_extractor is first


class TestWallClock:
    def test_wall_clock_starts_when_work_starts(self):
        batch = BatchExtractor(jobs=1)
        stream = batch.iter_html([TINY_FORM, OTHER_FORM])
        time.sleep(0.4)  # idle before any record is pulled
        report = stream.report()
        assert report.wall_seconds < 0.35
        assert len(report.records) == 2

    def test_wall_clock_stops_when_work_ends(self):
        batch = BatchExtractor(jobs=1)
        stream = batch.iter_html([TINY_FORM])
        records = list(stream)  # fully consumed here
        time.sleep(0.4)
        report = stream.report()
        assert report.records == records
        assert report.wall_seconds < 0.35

    def test_stream_exposes_live_info(self):
        batch = BatchExtractor(jobs=1)
        stream = batch.iter_html([TINY_FORM])
        assert isinstance(stream, BatchStream)
        assert stream.info.wall_seconds == 0.0  # not started yet
        next(stream)
        assert stream.info.started is not None


class TestErrorPathRecords:
    def test_empty_batch(self):
        report = BatchExtractor(jobs=1).extract_html([])
        assert report.records == []
        assert report.errors == []
        assert report.stats.tokens == 0
        assert report.wall_seconds >= 0.0

    def test_empty_batch_parallel(self):
        report = BatchExtractor(jobs=2).extract_html([])
        assert report.records == []

    def test_malformed_and_empty_html_stay_best_effort(self):
        sources = ["", "<not html <<<", "<form><select><option>x", TINY_FORM]
        report = BatchExtractor(jobs=1).extract_html(sources)
        assert all(record.ok for record in report.records)
        assert report.records[3].model is not None

    def test_form_with_every_token_unclaimed_reports_missing(self):
        report = BatchExtractor(jobs=1).extract_html(
            ["<form>alpha beta gamma delta</form>"]
        )
        (record,) = report.records
        assert record.ok
        assert record.model.missing  # merger missing_tokens surface
        assert record.trace is not None
        merge_span = next(
            span for span in record.trace["spans"] if span["name"] == "merge"
        )
        assert merge_span["counters"]["missing"] >= 1

    def test_worker_exception_becomes_error_record(self):
        report = BatchExtractor(jobs=2).extract_tokens(
            [[object()], []]
        )
        assert [record.ok for record in report.records] == [False, True]
        assert report.records[0].error
        assert report.records[0].model is None

    def test_no_form_fallback_warning_crosses_the_pool(self):
        page = "<html><body>Query: <input name=q></body></html>"
        for jobs in (1, 2):
            report = BatchExtractor(jobs=jobs).extract_html([page])
            (record,) = report.records
            assert any("no <form>" in warning for warning in record.warnings)

    def test_records_carry_traces_across_the_pool(self):
        report = BatchExtractor(jobs=2).extract_html([TINY_FORM, OTHER_FORM])
        for record in report.records:
            names = [span["name"] for span in record.trace["spans"]]
            assert names == [
                "html-parse", "layout", "tokenize", "parse.construct",
                "parse.maximize", "merge",
            ]


class TestCustomJobs:
    def test_custom_job_matches_builtin_extraction(self):
        custom = BatchExtractor(jobs=1).extract_custom(
            job_extract, [TINY_FORM, OTHER_FORM]
        )
        builtin = BatchExtractor(jobs=1).extract_html([TINY_FORM, OTHER_FORM])
        assert [str(m.conditions) for m in custom.models] == [
            str(m.conditions) for m in builtin.models
        ]

    def test_custom_job_parallel(self):
        report = BatchExtractor(jobs=2).extract_custom(
            job_extract, [TINY_FORM, OTHER_FORM, TINY_FORM]
        )
        assert all(record.ok for record in report.records)
        assert [record.index for record in report.records] == [0, 1, 2]


class TestAcceptance:
    """The ISSUE acceptance scenario: one injected crash plus one injected
    hang in the same batch -- exactly those two records error, all others
    intact and in input order."""

    def test_crash_and_hang_in_one_batch(self):
        items = [
            (TINY_FORM, "ok"),
            (TINY_FORM, "crash"),
            (OTHER_FORM, "ok"),
            (TINY_FORM, "hang"),
            (OTHER_FORM, "ok"),
        ]

        report = BatchExtractor(
            jobs=2, timeout=1.0, max_pool_restarts=1, retry_backoff=0
        ).extract_custom(job_crash_or_hang, items)
        assert [record.index for record in report.records] == [0, 1, 2, 3, 4]
        assert [record.ok for record in report.records] == [
            True, False, True, False, True,
        ]
        assert "WorkerCrash" in report.records[1].error
        assert report.records[3].error.startswith("Timeout:")
        for record in report.records:
            if record.ok:
                assert len(record.model.conditions) == 1


def job_crash_or_hang(extractor, arg):
    html, marker = arg
    if marker == "crash":
        os._exit(137)
    if marker == "hang":
        time.sleep(30)
    return extractor.extract_detailed(html)
