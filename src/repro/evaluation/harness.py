"""Batch evaluation: run an extractor over datasets, collect Figure 15.

The harness abstracts over extractors (the form extractor, or the heuristic
baseline) through a simple callable interface: anything mapping HTML to a
list of conditions can be evaluated.

When the default extractor is in use, every source flows through the batch
engine and its per-stage traces are folded into an optional
:class:`~repro.observability.MetricsRegistry` -- corpus-scale evaluation
with per-form diagnosability (``repro evaluate --metrics out.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.datasets.generator import GeneratedSource
from repro.datasets.repository import Dataset
from repro.evaluation.metrics import (
    SourceMetrics,
    average,
    distribution_over_thresholds,
    overall_metrics,
    per_source_metrics,
)
from repro.extractor import FormExtractor
from repro.observability.metrics import MetricsRegistry
from repro.semantics.condition import Condition
from repro.semantics.matching import ConditionMatcher

#: An extractor for evaluation purposes: html -> extracted conditions.
ExtractFn = Callable[[str], list[Condition]]


@dataclass
class SourceResult:
    """Evaluation outcome for one source."""

    source: GeneratedSource
    extracted: list[Condition]
    metrics: SourceMetrics
    elapsed_seconds: float = 0.0

    @property
    def precision(self) -> float:
        return self.metrics.precision

    @property
    def recall(self) -> float:
        return self.metrics.recall


@dataclass
class DatasetResult:
    """Evaluation outcome for one dataset."""

    name: str
    results: list[SourceResult] = field(default_factory=list)

    # -- aggregate views ----------------------------------------------------------

    @property
    def precisions(self) -> list[float]:
        return [result.precision for result in self.results]

    @property
    def recalls(self) -> list[float]:
        return [result.recall for result in self.results]

    @property
    def average_precision(self) -> float:
        """Figure 15(c): mean per-source precision."""
        return average(self.precisions)

    @property
    def average_recall(self) -> float:
        """Figure 15(c): mean per-source recall."""
        return average(self.recalls)

    @property
    def overall(self) -> SourceMetrics:
        """Figure 15(d): metrics over all conditions aggregated."""
        return overall_metrics([result.metrics for result in self.results])

    @property
    def accuracy(self) -> float:
        """The paper's headline number: ``(Pa + Ra) / 2``."""
        overall = self.overall
        return (overall.precision + overall.recall) / 2.0

    def precision_distribution(self) -> dict[float, float]:
        """Figure 15(a): % of sources per precision bucket."""
        return distribution_over_thresholds(self.precisions)

    def recall_distribution(self) -> dict[float, float]:
        """Figure 15(b): % of sources per recall bucket."""
        return distribution_over_thresholds(self.recalls)

    @property
    def total_elapsed(self) -> float:
        return sum(result.elapsed_seconds for result in self.results)


class EvaluationHarness:
    """Runs an extraction function over datasets and scores it.

    Extraction goes through the batch engine
    (:class:`repro.batch.BatchExtractor`) whenever the default extractor is
    in use: ``jobs=1`` (the default) runs serially in-process, exactly as a
    hand-written loop would; ``jobs=N`` fans sources over ``N`` worker
    processes.  A custom ``extract`` callable cannot be shipped to workers
    (it may close over anything), so it always runs serially.

    Args:
        extract: Custom ``html -> conditions`` callable (default: the
            standard :class:`FormExtractor`).
        matcher: Condition equivalence used for scoring.
        jobs: Worker processes for the default-extractor path.
        metrics: Registry receiving one trace per evaluated source plus
            batch fault counters (default-extractor path only -- a custom
            callable yields no traces).
        timeout: Per-form extraction deadline in seconds, enforced by
            the extractor's guard (default-extractor path only): a breach
            is an error record, or with *resilience* a ``capped`` model.
        retries: Extra attempts for failed forms before their error
            record is final.
        cache: Extraction cache for the batch engine (``True`` for a
            private in-memory cache, or a shared
            :class:`~repro.cache.ExtractionCache`).  Hit/miss/dedupe
            counts surface as ``batch.cache.*`` metrics.
        cache_dir: Directory for a disk-backed cache shared with pool
            workers (implies caching on).
        journal: Resume-journal path for the batch engine; finalized
            per-form outcomes are checkpointed there.
        resume: Replay successfully journaled forms instead of
            re-extracting them (requires *journal*); ``batch.resume.*``
            metrics report what was skipped.
        resilience: Run extractions under the degradation ladder
            (``True`` or a :class:`~repro.resilience.ladder.
            ResilienceConfig`): pathological sources score as degraded
            models instead of erroring, counted per ``degrade.<level>``.
    """

    def __init__(
        self,
        extract: ExtractFn | None = None,
        matcher: ConditionMatcher | None = None,
        jobs: int | str = 1,
        metrics: MetricsRegistry | None = None,
        timeout: float | None = None,
        retries: int = 0,
        cache: object | bool | None = None,
        cache_dir: str | None = None,
        journal: str | None = None,
        resume: bool = False,
        resilience: object | bool | None = None,
    ):
        if jobs != "auto" and (not isinstance(jobs, int) or jobs < 1):
            raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
        self.jobs = jobs
        self.metrics = metrics
        self.timeout = timeout
        self.retries = retries
        self.cache = cache
        self.cache_dir = cache_dir
        self.journal = journal
        self.resume = resume
        self.resilience = resilience
        self.custom_extract = extract is not None
        if extract is None:
            extractor = FormExtractor()

            def extract(html: str) -> list[Condition]:
                return list(extractor.extract(html).conditions)

        self.extract = extract
        self.matcher = matcher or ConditionMatcher()

    def evaluate_source(self, source: GeneratedSource) -> SourceResult:
        """Extract from one source and score against its ground truth."""
        started = time.perf_counter()
        extracted = self.extract(source.html)
        elapsed = time.perf_counter() - started
        return self._score(source, extracted, elapsed)

    def evaluate(self, dataset: Dataset) -> DatasetResult:
        """Evaluate every source of *dataset*.

        With the default extractor every source flows through the batch
        engine -- serially in-process for ``jobs=1``, over worker
        processes otherwise -- so per-form failures (exceptions, timeouts,
        worker crashes) score as empty extractions instead of aborting the
        evaluation, and per-stage traces reach the metrics registry.
        """
        result = DatasetResult(name=dataset.name)
        sources = list(dataset)
        if not self.custom_extract:
            from repro.batch import BatchExtractor

            batch = BatchExtractor(
                jobs=self.jobs,
                timeout=self.timeout,
                retries=self.retries,
                cache=self.cache,
                cache_dir=self.cache_dir,
                journal=self.journal,
                resume=self.resume,
                resilience=self.resilience,
            )
            stream = batch.iter_html(source.html for source in sources)
            for source, record in zip(sources, stream):
                if self.metrics is not None:
                    if record.trace is not None:
                        self.metrics.record_trace(record.trace)
                        level = (record.trace.get("tags") or {}).get(
                            "degrade.level"
                        )
                        if level:
                            self.metrics.inc(f"degrade.{level}")
                    if record.error is not None:
                        self.metrics.inc("evaluate.form_errors")
                extracted = (
                    list(record.model.conditions)
                    if record.model is not None
                    else []
                )
                result.results.append(
                    self._score(source, extracted, record.elapsed_seconds)
                )
            if self.metrics is not None:
                report = stream.report()
                self.metrics.inc("evaluate.sources", len(sources))
                self.metrics.inc("batch.pool_restarts", report.pool_restarts)
                if report.degraded:
                    self.metrics.inc("batch.degraded_runs")
                self.metrics.inc("batch.cache.hits", report.cache_hits)
                self.metrics.inc("batch.cache.misses", report.cache_misses)
                self.metrics.inc(
                    "batch.dedupe.collapsed", report.dedupe_collapsed
                )
                self.metrics.inc("batch.resume.skipped", report.resume_skipped)
                self.metrics.inc(
                    "batch.resume.corrupt_lines", report.journal_corrupt_lines
                )
                self.metrics.inc(
                    "batch.cache.corrupt_records", report.cache_corrupt_records
                )
            batch.close()
            return result
        for source in sources:
            result.results.append(self.evaluate_source(source))
        return result

    def _score(
        self,
        source: GeneratedSource,
        extracted: list[Condition],
        elapsed: float,
    ) -> SourceResult:
        metrics = per_source_metrics(extracted, source.truth, self.matcher)
        return SourceResult(
            source=source,
            extracted=extracted,
            metrics=metrics,
            elapsed_seconds=elapsed,
        )

    def evaluate_all(
        self, datasets: Iterable[Dataset]
    ) -> dict[str, DatasetResult]:
        """Evaluate several datasets, keyed by name."""
        return {dataset.name: self.evaluate(dataset) for dataset in datasets}
