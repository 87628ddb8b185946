"""Batch extraction engine: ordering, aggregation, errors, parallelism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.batch import BatchExtractor, BatchRecord, BatchReport
from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.extractor import FormExtractor
from repro.parser.parser import ParserConfig, ParseStats


def _sources(count=6):
    profile = GeneratorProfile(min_conditions=2, max_conditions=5)
    names = sorted(DOMAINS)
    return [
        SourceGenerator(DOMAINS[names[i % len(names)]], profile)
        .generate(seed=31_000 + i)
        .html
        for i in range(count)
    ]


_SOURCES = _sources()


class TestSerialPath:
    def test_matches_plain_extractor_loop(self):
        extractor = FormExtractor()
        expected = [extractor.extract(html) for html in _SOURCES]
        report = BatchExtractor(jobs=1).extract_html(_SOURCES)
        assert not report.errors
        assert [str(m.conditions) for m in report.models] == [
            str(m.conditions) for m in expected
        ]

    def test_records_arrive_in_input_order(self):
        records = list(BatchExtractor().iter_html(_SOURCES))
        assert [record.index for record in records] == list(
            range(len(_SOURCES))
        )

    def test_token_batches(self):
        extractor = FormExtractor()
        token_sets = [
            extractor.extract_detailed(html).tokens for html in _SOURCES[:3]
        ]
        report = BatchExtractor().extract_tokens(token_sets)
        assert not report.errors
        assert report.stats.tokens == sum(len(t) for t in token_sets)

    def test_parser_config_is_forwarded(self):
        config = ParserConfig(max_instances=5, max_combos_per_instance=2)
        report = BatchExtractor(parser_config=config).extract_html(
            _SOURCES[:2]
        )
        assert report.stats.truncated

    def test_bad_input_becomes_error_record(self):
        report = BatchExtractor().extract_tokens(
            [[object()]]  # not tokens: the pipeline raises, the batch not
        )
        assert len(report.errors) == 1
        record = report.errors[0]
        assert not record.ok
        assert record.model is None
        assert record.error

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            BatchExtractor(jobs=0)


class TestReportAggregation:
    def test_stats_sum_elementwise(self):
        a = ParseStats(tokens=10, instances_created=4, combos_examined=20)
        b = ParseStats(
            tokens=5, instances_created=2, combos_examined=7, truncated=True
        )
        report = BatchReport(
            records=[
                BatchRecord(index=0, stats=a, elapsed_seconds=0.5),
                BatchRecord(index=1, stats=b, elapsed_seconds=0.25),
                BatchRecord(index=2, error="boom", elapsed_seconds=0.01),
            ],
            jobs=2,
            wall_seconds=0.5,
        )
        total = report.stats
        assert total.tokens == 15
        assert total.instances_created == 6
        assert total.combos_examined == 27
        assert total.truncated is True
        assert report.cpu_seconds == pytest.approx(0.76)
        summary = report.summary()
        assert summary["forms"] == 3
        assert summary["errors"] == 1
        assert summary["jobs"] == 2
        assert "3 forms with 2 job(s)" in report.describe()

    def test_extracted_report_stats_is_the_fieldwise_sum(self):
        """Every ParseStats field is a number or a flag, so a report's
        stats is the field-wise sum (flags OR together); a string field
        would be concatenated instead."""
        report = BatchExtractor(jobs=1).extract_html(_SOURCES[:3])
        per_form = [record.stats for record in report.records]
        assert len(per_form) == 3
        assert all(stats is not None for stats in per_form)
        total = report.stats
        for spec in dataclasses.fields(ParseStats):
            values = [getattr(stats, spec.name) for stats in per_form]
            assert all(
                type(value) in (int, float, bool) for value in values
            ), spec.name
            if isinstance(values[0], bool):
                expected = any(values)
            else:
                expected = sum(values)
            assert getattr(total, spec.name) == expected, spec.name


class TestParallelPath:
    """Worker-pool runs must be byte-identical to the serial path.

    The pool is exercised with ``jobs=2`` on a small batch; correctness,
    ordering, and error isolation do not depend on core count.
    """

    def test_matches_serial_results(self):
        serial = BatchExtractor(jobs=1).extract_html(_SOURCES)
        parallel = BatchExtractor(jobs=2).extract_html(_SOURCES)
        assert not parallel.errors
        assert parallel.jobs == 2
        assert [str(m.conditions) for m in parallel.models] == [
            str(m.conditions) for m in serial.models
        ]
        assert [r.index for r in parallel.records] == [
            r.index for r in serial.records
        ]
        assert parallel.stats.combos_examined == serial.stats.combos_examined

    def test_worker_error_does_not_poison_batch(self):
        extractor = FormExtractor()
        tokens = extractor.extract_detailed(_SOURCES[0]).tokens
        report = BatchExtractor(jobs=2).extract_tokens(
            [tokens, [object()], tokens]
        )
        assert [record.ok for record in report.records] == [True, False, True]
        assert report.records[1].error
