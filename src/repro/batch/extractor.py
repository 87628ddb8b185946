"""Parallel batch extraction over a fault-tolerant process pool.

Parsing dominates extraction cost and each form is independent, so batch
throughput scales with cores.  :class:`BatchExtractor` fans tokenized forms
(or raw HTML sources) over a ``ProcessPoolExecutor``:

* **Per-worker parser reuse** -- each worker builds its grammar, schedule,
  and :class:`~repro.extractor.FormExtractor` exactly once (in the pool
  initializer) and reuses them for every form it processes.  Work is
  shipped as tokens/HTML and comes back as plain result records; parse
  forests (whose grammar closures do not pickle) never cross the process
  boundary.
* **Chunked scheduling** -- inputs are dispatched in chunks to amortize
  IPC overhead; the chunk size adapts to the batch size unless overridden.
* **Ordered results** -- :meth:`BatchExtractor.iter_tokens` /
  :meth:`iter_html` yield one :class:`BatchRecord` per input, in input
  order, as they become available.
* **A pool of one** -- ``jobs=1`` (the default) dispatches through the
  same loop to an in-process executor that runs each form at once, in
  the calling thread, on the batch's own local extractor.  Models are
  those of a plain :class:`FormExtractor` loop; dedupe, the cache,
  retries and the journal behave exactly as pooled.  The module-global
  worker state is strictly worker-side, so nested or concurrent batches
  in one process never clobber each other.
* **Content-addressed dedupe and caching** -- before dispatching, every
  run hashes every input (:func:`~repro.cache.html_signature` /
  :func:`~repro.cache.token_signature`) and collapses duplicates: one
  *leader* per distinct signature is extracted, its result replicated to
  the followers (fresh deserialized models, replayed stats -- aggregate
  counters stay identical to a full recompute).  With ``cache=True`` (or
  an :class:`~repro.cache.ExtractionCache`) results persist across
  ``extract_*`` calls, and ``cache_dir=...`` backs them with a JSON-lines
  file that pool workers share, so repeated forms skip the parse wherever
  they show up.
* **Warm pool reuse** -- the worker pool uses the ``fork`` start method
  where available and persists across ``extract_*`` calls, so workers
  (and their grammar/schedule, pre-warmed in the parent before the first
  fork) are paid for once per :class:`BatchExtractor`, not once per
  batch; :meth:`BatchExtractor.warm` forks them up front.  Worker counts
  are clamped to :func:`~repro.batch.cpu.usable_cores` unless
  ``oversubscribe=True``; ``jobs="auto"`` sizes the pool to the usable
  cores directly.

A worker never lets one bad form poison the batch: per-form failures come
back as records with ``error`` set (best-effort at the batch level, just
as the parser is best-effort at the form level).  Three fault-tolerance
layers back that contract up:

* **Per-form deadline** -- ``timeout`` is the deadline of the
  extractor's guard, which every stage checks on any thread: a breach is
  a ``Timeout:`` error record, or under the ladder a ``capped`` model.
  A ``SIGALRM`` backstop (:func:`_watchdog`) stops code that never checks
  the guard; the worker survives for the rest of the batch.
* **Retry with backoff** -- ``retries=N`` re-runs a failed form up to
  ``N`` extra times (exponential backoff from ``retry_backoff``) before
  its error record becomes final; :attr:`BatchRecord.attempts` reports
  the count.
* **Pool recovery** -- a crashed worker (OOM kill, segfault) breaks the
  whole ``ProcessPoolExecutor``; the extractor rebuilds the pool and
  requeues every unfinished form.  After ``max_pool_restarts`` full-pool
  deaths it degrades to an *isolation* pool (one worker, one form in
  flight) where a further crash identifies its culprit exactly: that one
  form is recorded as ``WorkerCrash``, everything else proceeds.  A
  crashed worker therefore costs one record marked ``error``, never the
  batch.
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import multiprocessing
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.batch.cpu import usable_cores
from repro.batch.journal import BatchJournal, job_key
from repro.cache import (
    CACHE_FILENAME,
    CacheEntry,
    ExtractionCache,
    html_signature,
    token_signature,
)
from repro.extractor import ExtractionResult, FormExtractor
from repro.observability.logs import get_logger, log_event
from repro.observability.trace import Trace
from repro.parser.parser import ParserConfig, ParseStats
from repro.resilience.guard import BudgetExceeded
from repro.resilience.ladder import ResilienceConfig
from repro.semantics.condition import SemanticModel
from repro.semantics.serialize import model_from_dict, model_to_dict
from repro.tokens.model import Token

_logger = get_logger("repro.batch")

#: A custom per-form job for :meth:`BatchExtractor.iter_custom`: receives
#: the worker's extractor and one payload, returns an
#: :class:`ExtractionResult`.  Must be a module-level callable so it
#: pickles by reference.
CustomJob = Callable[[FormExtractor, Any], ExtractionResult]

#: The ``SIGALRM`` backstop fires at ``BACKSTOP_SLACK`` times a form's
#: deadline, and never before ``BACKSTOP_MIN_SECONDS``: after the guard's
#: deadline the ladder still merges or falls back (~10 ms on an 80-field
#: form), and the backstop must not cut that short.
BACKSTOP_SLACK = 3.0
BACKSTOP_MIN_SECONDS = 1.0


class ExtractionTimeout(Exception):
    """A form ran past the ``SIGALRM`` backstop of its deadline."""


@dataclass
class BatchRecord:
    """Outcome of extracting one form of the batch."""

    index: int
    model: SemanticModel | None = None
    stats: ParseStats | None = None
    elapsed_seconds: float = 0.0
    error: str | None = None
    #: Times this form was attempted (1 unless retries kicked in).
    attempts: int = 1
    #: Non-fatal degradations (e.g. the no-``<form>`` whole-page fallback).
    warnings: list[str] = field(default_factory=list)
    #: Serialized per-stage :class:`~repro.observability.Trace`
    #: (``Trace.to_dict()``); plain data so it crosses the process boundary.
    trace: dict | None = None
    #: True when this record was served from the extraction cache instead
    #: of being extracted.
    cached: bool = False
    #: True when this record was replicated from an identical input's
    #: leader extraction (batch dedupe) instead of being dispatched.
    deduped: bool = False
    #: True when this record was replayed from a resume journal written
    #: by an earlier (crashed or interrupted) run instead of extracted.
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_payload(self) -> dict:
        """Plain-data form for the resume journal (JSON-serializable)."""
        return {
            "index": self.index,
            "model": model_to_dict(self.model) if self.model is not None else None,
            "stats": dataclasses.asdict(self.stats) if self.stats is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
            "attempts": self.attempts,
            "warnings": list(self.warnings),
            "trace": self.trace,
            "cached": self.cached,
            "deduped": self.deduped,
        }

    @classmethod
    def from_payload(cls, payload: dict, index: int) -> "BatchRecord":
        """Rebuild a journaled record (fresh objects, marked ``resumed``).

        Stats rebuild as :meth:`ParseStats.from_dict` does; a payload
        that cannot rebuild at all comes back as an error record so the
        caller re-extracts rather than trusting a corrupt checkpoint.
        """
        try:
            model_payload = payload.get("model")
            stats_payload = payload.get("stats")
            return cls(
                index=index,
                model=(
                    model_from_dict(model_payload)
                    if isinstance(model_payload, dict)
                    else None
                ),
                stats=(
                    ParseStats.from_dict(stats_payload)
                    if isinstance(stats_payload, dict)
                    else None
                ),
                elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
                error=payload.get("error"),
                attempts=int(payload.get("attempts", 1)),
                warnings=list(payload.get("warnings", ())),
                trace=payload.get("trace"),
                cached=bool(payload.get("cached", False)),
                deduped=bool(payload.get("deduped", False)),
                resumed=True,
            )
        except Exception as exc:  # noqa: BLE001 - corrupt checkpoint
            return cls(
                index=index,
                error=f"ResumeError: journaled record unusable ({exc})",
                resumed=True,
            )


@dataclass
class BatchReport:
    """Aggregated outcome of one batch run."""

    records: list[BatchRecord] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    #: Process-pool rebuilds forced by crashed workers during the run.
    pool_restarts: int = 0
    #: True when crashes degraded the run to the single-worker isolation pool.
    degraded: bool = False
    #: Inputs served from the extraction cache (no extraction dispatched).
    cache_hits: int = 0
    #: Inputs that went through the cache and missed (0/0 when caching is
    #: off -- the hit rate is then reported as 0.0).
    cache_misses: int = 0
    #: Inputs collapsed onto an identical leader input by batch dedupe.
    dedupe_collapsed: int = 0
    #: Inputs replayed from the resume journal instead of extracted.
    resume_skipped: int = 0
    #: Corrupt journal lines quarantined while loading the resume journal.
    journal_corrupt_lines: int = 0
    #: Corrupt disk-cache records quarantined during this extractor's
    #: cache reloads (parent-process view of the shared cache file).
    cache_corrupt_records: int = 0

    @property
    def models(self) -> list[SemanticModel | None]:
        """Per-input models, in input order (``None`` where extraction failed)."""
        return [record.model for record in self.records]

    @property
    def errors(self) -> list[BatchRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def stats(self) -> ParseStats:
        """Element-wise sum of the per-form parse statistics.

        Summed dynamically over the :class:`ParseStats` fields (booleans
        OR together), so new counters aggregate without touching this.
        """
        total = ParseStats()
        for record in self.records:
            stats = record.stats
            if stats is None:
                continue
            for spec in dataclasses.fields(ParseStats):
                value = getattr(stats, spec.name)
                if isinstance(value, bool):
                    setattr(total, spec.name, getattr(total, spec.name) or value)
                else:
                    setattr(total, spec.name, getattr(total, spec.name) + value)
        return total

    @property
    def cpu_seconds(self) -> float:
        """Summed per-form extraction time (exceeds wall time when parallel)."""
        return sum(record.elapsed_seconds for record in self.records)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def summary(self) -> dict:
        """Flat numbers for logs, benchmarks, and JSON reports."""
        stats = self.stats
        return {
            "forms": len(self.records),
            "errors": len(self.errors),
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "tokens": stats.tokens,
            "instances_created": stats.instances_created,
            "combos_examined": stats.combos_examined,
            "combos_prefiltered": stats.combos_prefiltered,
            "truncated_any": stats.truncated,
            "pool_restarts": self.pool_restarts,
            "degraded": self.degraded,
            "retried_forms": sum(
                1 for record in self.records if record.attempts > 1
            ),
            "cache.hits": self.cache_hits,
            "cache.misses": self.cache_misses,
            "cache.hit_rate": round(self.cache_hit_rate, 4),
            "dedupe.collapsed": self.dedupe_collapsed,
            "resume.skipped": self.resume_skipped,
            "resume.corrupt_lines": self.journal_corrupt_lines,
            "cache.corrupt_records": self.cache_corrupt_records,
        }

    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        numbers = self.summary()
        speedup = (
            numbers["cpu_seconds"] / numbers["wall_seconds"]
            if numbers["wall_seconds"] > 0
            else 0.0
        )
        text = (
            f"{numbers['forms']} forms with {self.jobs} job(s) in "
            f"{numbers['wall_seconds']:.2f}s wall "
            f"({numbers['cpu_seconds']:.2f}s cpu, {speedup:.1f}x overlap); "
            f"{numbers['tokens']} tokens, "
            f"{numbers['instances_created']} instances, "
            f"{numbers['combos_examined']} combos examined, "
            f"{numbers['errors']} error(s)"
        )
        if self.cache_hits or self.dedupe_collapsed:
            text += (
                f"; {self.cache_hits} cache hit(s), "
                f"{self.dedupe_collapsed} deduped"
            )
        if self.resume_skipped:
            text += f"; {self.resume_skipped} resumed from journal"
        if self.pool_restarts:
            text += (
                f"; {self.pool_restarts} pool restart(s)"
                + (" [degraded to isolation]" if self.degraded else "")
            )
        return text


class _RunInfo:
    """Wall-clock and fault bookkeeping for one batch run.

    ``started`` is stamped when the work actually starts (first record
    pulled), not when the iterator is created or collected, so
    ``wall_seconds`` is meaningful however lazily the stream is consumed.
    """

    __slots__ = (
        "started", "finished", "pool_restarts", "degraded",
        "cache_hits", "cache_misses", "dedupe_collapsed",
        "resume_skipped", "journal_corrupt_lines",
    )

    def __init__(self) -> None:
        self.started: float | None = None
        self.finished: float | None = None
        self.pool_restarts = 0
        self.degraded = False
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedupe_collapsed = 0
        self.resume_skipped = 0
        self.journal_corrupt_lines = 0

    @property
    def wall_seconds(self) -> float:
        if self.started is None:
            return 0.0
        end = self.finished if self.finished is not None else time.perf_counter()
        return end - self.started


class BatchStream(Iterator[BatchRecord]):
    """Ordered stream of :class:`BatchRecord` s with run bookkeeping.

    Iterating pulls records in input order as they finish.  The stream
    retains every record it yields so :meth:`report` can aggregate them;
    :attr:`info` exposes the wall clock and pool-restart counters while
    the run is still in flight.
    """

    def __init__(
        self,
        generator: Iterator[BatchRecord],
        info: _RunInfo,
        jobs: int,
        cache: "ExtractionCache | None" = None,
    ):
        self._generator = generator
        self.info = info
        self.jobs = jobs
        self.cache = cache
        self.records: list[BatchRecord] = []

    def __iter__(self) -> "BatchStream":
        return self

    def __next__(self) -> BatchRecord:
        record = next(self._generator)
        self.records.append(record)
        return record

    def report(self) -> BatchReport:
        """Drain whatever remains and aggregate the whole run."""
        for _ in self:
            pass
        return BatchReport(
            records=list(self.records),
            jobs=self.jobs,
            wall_seconds=self.info.wall_seconds,
            pool_restarts=self.info.pool_restarts,
            degraded=self.info.degraded,
            cache_hits=self.info.cache_hits,
            cache_misses=self.info.cache_misses,
            dedupe_collapsed=self.info.dedupe_collapsed,
            resume_skipped=self.info.resume_skipped,
            journal_corrupt_lines=self.info.journal_corrupt_lines,
            cache_corrupt_records=(
                self.cache.stats.corrupt_records
                if self.cache is not None
                else 0
            ),
        )


# -- worker-side machinery ----------------------------------------------------------
#
# Everything the pool touches must be picklable by reference: module-level
# functions only, with per-worker state in a module global set up by the
# initializer.  The global is strictly worker-side: the in-process (jobs=1)
# executor runs on a local extractor instead, so it cannot clobber state
# for a nested or concurrent batch in the same process.

_worker_extractor: FormExtractor | None = None

#: Worker cache specification, picklable for the pool initializer:
#: ``None`` (no cache), ``("memory", capacity)``, or
#: ``("disk", path, capacity)`` -- the disk variant shares one JSON-lines
#: file between all workers (and the parent), so a form parsed by one
#: worker is a cache hit for every other.
CacheSpec = tuple | None


def _cache_from_spec(spec: CacheSpec) -> ExtractionCache | None:
    if spec is None:
        return None
    if spec[0] == "disk":
        return ExtractionCache(capacity=spec[2], path=spec[1])
    return ExtractionCache(capacity=spec[1])


def _init_worker(
    parser_config: ParserConfig | None,
    cache_spec: CacheSpec = None,
    resilience: ResilienceConfig | None = None,
) -> None:
    """Pool initializer: build and warm the extractor once per worker.

    The warmup parse runs here, inside the initializer, so every worker
    has already paid the schedule/kernel/core first-call costs before
    the pool accepts its first job -- the serving tier's cold p50
    measures the parse, not module imports.
    """
    global _worker_extractor
    _worker_extractor = _build_extractor(
        parser_config, _cache_from_spec(cache_spec), resilience
    )
    _worker_extractor.warmup()


def _build_extractor(
    parser_config: ParserConfig | None,
    cache: ExtractionCache | None = None,
    resilience: ResilienceConfig | None = None,
) -> FormExtractor:
    return FormExtractor(
        parser_config=parser_config, cache=cache, resilience=resilience
    )


def _require_worker_extractor() -> FormExtractor:
    if _worker_extractor is None:
        raise RuntimeError(
            "worker extractor not initialized -- _init_worker did not run"
        )
    return _worker_extractor


@contextmanager
def _watchdog(timeout: float | None):
    """Abort the enclosed block at the backstop time of *timeout*.

    The backstop for code that never checks the guard's deadline, with
    ``SIGALRM``/``setitimer``, which interrupts pure-Python work from
    inside the process -- the worker survives to take the next form.
    Where the signal cannot be hosted (non-main thread, non-Unix
    platforms, or a handler registration that loses a thread race) the
    block runs without it: the guard's deadline still bounds the stages,
    and pool recovery bounds a truly stuck worker.
    """
    usable = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    seconds = max(BACKSTOP_SLACK * timeout, BACKSTOP_MIN_SECONDS)

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise ExtractionTimeout(f"backstop at {seconds:g}s")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:
        # signal.signal re-checks the thread; a main-thread check that
        # passed above can still lose (embedded interpreters, exotic
        # threading): run without the backstop rather than die.
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _extract_one(
    extractor: FormExtractor,
    kind: str,
    index: int,
    payload: Any,
    timeout: float | None,
) -> BatchRecord:
    """Run one form through *extractor*; failures become error records."""
    started = time.perf_counter()
    try:
        with _watchdog(timeout):
            if kind == "html":
                result = extractor.extract_detailed(payload, deadline=timeout)
            elif kind == "tokens":
                tokens, signature = payload
                result = extractor._extract_signed_tokens(
                    tokens, signature, deadline=timeout
                )
            else:  # "custom"
                job_fn, arg = payload
                result = job_fn(extractor, arg)
    except (ExtractionTimeout, BudgetExceeded) as exc:
        return BatchRecord(
            index=index,
            elapsed_seconds=time.perf_counter() - started,
            error=f"Timeout: extraction exceeded {timeout:g}s ({exc})",
        )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return BatchRecord(
            index=index,
            elapsed_seconds=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    record = BatchRecord(
        index=index,
        model=result.model,
        stats=result.parse.stats,
        elapsed_seconds=time.perf_counter() - started,
    )
    trace = getattr(result, "trace", None)
    if trace is not None:
        record.trace = trace.to_dict()
        record.warnings = list(trace.warnings)
    return record


def _extract_chunk(
    kind: str,
    chunk: list[tuple[int, Any]],
    timeout: float | None,
    extractor: FormExtractor | None = None,
) -> list[BatchRecord]:
    """Worker entry point: run one chunk of (index, payload) jobs on the
    worker's extractor (or on *extractor*, in process)."""
    extractor = extractor or _require_worker_extractor()
    return [
        _extract_one(extractor, kind, index, payload, timeout)
        for index, payload in chunk
    ]


class _InProcessExecutor(Executor):
    """The ``jobs=1`` pool of one: the calling process is its worker.

    :meth:`submit` runs the chunk at once, in the calling thread, on the
    batch's own extractor (never the worker global) and returns a finished
    future.  The calling thread keeps the ``SIGALRM`` watchdog armable.
    """

    def __init__(self, extractor: FormExtractor):
        extractor.warmup()  # what a pool worker's initializer does
        self._extractor = extractor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, extractor=self._extractor, **kwargs))
        except Exception as exc:  # noqa: BLE001 - delivered like a worker's
            future.set_exception(exc)
        return future


# -- dedupe / cache helpers ---------------------------------------------------------


def _signature_for(kind: str, payload: Any) -> str | None:
    """Content signature of one batch input, or ``None`` if unsignable.

    A payload the hasher cannot digest (wrong type, exotic token attrs) is
    simply dispatched individually -- signing is an optimization and must
    never fail a batch that extraction itself would handle.
    """
    try:
        if kind == "html":
            return html_signature(payload)
        if kind == "tokens":
            return token_signature(payload)
    except Exception:  # noqa: BLE001 - unsignable, not fatal
        return None
    return None


def _record_from_entry(entry: CacheEntry, index: int) -> BatchRecord:
    """A batch record served from the extraction cache (fresh objects),
    traced like the extractor's own replay: one ``cache`` span."""
    trace = Trace(tags={"cache_hit": True}, warnings=list(entry.warnings))
    trace.add_span("cache", 0.0, counters={"hit": 1})
    return BatchRecord(
        index=index,
        model=entry.rebuild_model(),
        stats=entry.rebuild_stats(),
        warnings=list(entry.warnings),
        trace=trace.to_dict(),
        cached=True,
    )


def _cache_record(cache: ExtractionCache, signature: str, record: BatchRecord) -> None:
    """Store *record* under *signature*, if it may answer later lookups:
    as in the extractor, only ok, ``full``-level records are stored, and
    not again where the extractor that ran the job, sharing this cache
    (``jobs=1``), already stored a token input under its signature."""
    tags = (record.trace or {}).get("tags", {})
    if (
        record.ok
        and record.model is not None
        and "degrade.level" not in tags
        and signature not in cache
    ):
        cache.put(
            signature,
            CacheEntry.from_parts(record.model, record.stats, record.warnings),
        )


def _replicate_record(record: BatchRecord, index: int) -> BatchRecord:
    """Replay a leader's successful record for a deduped follower.

    Model and stats are rebuilt through the serialization round-trip so
    the replica can never alias the leader's objects; ``elapsed_seconds``
    stays 0 -- no extraction happened for this input.
    """
    return BatchRecord(
        index=index,
        model=(
            model_from_dict(model_to_dict(record.model))
            if record.model is not None
            else None
        ),
        stats=(
            dataclasses.replace(record.stats)
            if record.stats is not None
            else None
        ),
        warnings=list(record.warnings),
        trace=copy.deepcopy(record.trace),
        cached=record.cached,
        deduped=True,
    )


class BatchExtractor:
    """Extract many forms, optionally in parallel worker processes.

    Args:
        jobs: Worker process count.  ``1`` (default) runs one form at a
            time in the calling process -- the models of a
            :class:`FormExtractor` loop, with dedupe and the cache as
            pooled.  ``"auto"`` sizes the pool to
            :func:`~repro.batch.cpu.usable_cores`.  Pooled runs clamp the
            actual worker count to the usable cores (see *oversubscribe*);
            ``jobs`` itself is still reported unchanged.
        parser_config: Optional :class:`ParserConfig` shipped to workers.
        chunksize: Inputs dispatched per IPC round-trip.  Default: split
            the batch into about four waves per worker, minimum one input.
        timeout: Per-form deadline in seconds (``None`` = no limit), the
            deadline of every form's guard: a breach is a ``Timeout:``
            error record, or a ``capped`` model under *resilience*.  A
            ``SIGALRM`` backstop at ``BACKSTOP_SLACK`` times it (at least
            ``BACKSTOP_MIN_SECONDS``) stops code that never checks the
            guard, custom jobs included.
        retries: Extra attempts for a failed form before its error record
            is final (default 0 -- extraction is deterministic, so retries
            only help against transient faults: crashes, timeouts under
            load, flaky custom jobs).
        retry_backoff: Base of the exponential backoff between attempts
            (``retry_backoff * 2**(attempt-1)`` seconds).
        max_pool_restarts: Full-pool rebuilds allowed after worker crashes
            before degrading to the single-worker isolation pool that
            pinpoints crashing forms one at a time.
        cache: Extraction cache.  ``None``/``False`` (default) disables
            caching; ``True`` creates a private in-memory
            :class:`~repro.cache.ExtractionCache`; an existing cache
            instance is used as-is (share one across extractors to share
            hits).  Identical inputs within a batch are deduped regardless
            -- the cache adds reuse *across* batches and ``extract_*``
            calls.
        cache_dir: Directory for a disk-backed cache shared with pool
            workers (implies caching on).  The JSON-lines file inside is
            append-only; delete the directory to invalidate.
        oversubscribe: Allow more pooled workers than
            :func:`~repro.batch.cpu.usable_cores`.  Off by default:
            oversubscribed CPU-bound workers only add scheduling thrash
            (the 0.66x "speedup" this engine shipped with).
        journal: Path to a resume journal (JSON-lines).  When set, every
            finalized record is checkpointed so a crashed or killed run
            can be resumed.
        resume: Load *journal* before running and replay every
            successfully journaled form (matching position **and**
            content signature) instead of re-extracting it; failed forms
            are re-attempted.  Requires *journal*.
        resilience: Run worker extractions under the degradation ladder
            (:meth:`FormExtractor.extract_resilient` semantics): ``True``
            for the default :class:`~repro.resilience.ladder.
            ResilienceConfig`, or a config instance (shipped to pool
            workers, so it must stay plain data).  Pathological inputs
            then come back as degraded models instead of error records.
    """

    def __init__(
        self,
        jobs: int | str = 1,
        parser_config: ParserConfig | None = None,
        chunksize: int | None = None,
        timeout: float | None = None,
        retries: int = 0,
        retry_backoff: float = 0.1,
        max_pool_restarts: int = 2,
        cache: ExtractionCache | bool | None = None,
        cache_dir: str | Path | None = None,
        oversubscribe: bool = False,
        journal: str | Path | None = None,
        resume: bool = False,
        resilience: ResilienceConfig | bool | None = None,
    ):
        # Read once: ``usable_cores`` re-reads the affinity mask and the
        # cgroup quota files on every call.
        cores = usable_cores()
        if jobs == "auto":
            jobs = cores
        if not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        self.jobs = jobs
        self.parser_config = parser_config
        self.chunksize = chunksize
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.max_pool_restarts = max_pool_restarts
        self.oversubscribe = oversubscribe
        # Pooled worker count: CPU-bound workers beyond the scheduler's
        # cores add only context switches and IPC.
        self._workers = jobs if oversubscribe else min(jobs, cores)
        self.cache_path: Path | None = (
            Path(cache_dir) / CACHE_FILENAME
            if cache_dir is not None
            else None
        )
        if self.cache_path is not None:
            self.cache: ExtractionCache | None = (
                cache
                if isinstance(cache, ExtractionCache)
                else ExtractionCache(path=self.cache_path)
            )
        elif isinstance(cache, ExtractionCache):
            self.cache = cache
        elif cache:
            self.cache = ExtractionCache()
        else:
            self.cache = None
        if resume and journal is None:
            raise ValueError("resume=True requires a journal path")
        if resilience is True:
            resilience = ResilienceConfig()
        elif resilience is False:
            resilience = None
        self.resilience: ResilienceConfig | None = resilience
        self.journal_path: Path | None = (
            Path(journal) if journal is not None else None
        )
        self.resume = resume
        self._journal: BatchJournal | None = (
            BatchJournal(self.journal_path, resume=resume)
            if self.journal_path is not None
            else None
        )
        self._serial_extractor: FormExtractor | None = None
        self._pool: Executor | None = None
        self._pool_workers = 0

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_workers = 0

    def warm(self) -> int:
        """Build the executor and start every worker *now*.

        Long-lived callers -- the serving tier above all -- pay the fork
        and grammar/schedule warm-up once at startup instead of on the
        first request.  A process pool forks on demand, so one empty
        chunk per worker is submitted and awaited.  Returns the number of
        workers standing by (for ``jobs=1``, the calling process).
        """
        workers = self._workers
        pool = self._get_pool(workers)
        for future in [
            pool.submit(_extract_chunk, "custom", [], None) for _ in range(workers)
        ]:
            future.result()  # a worker that cannot start raises here
        return workers

    def submit_custom(
        self,
        job_fn: CustomJob,
        item: Any,
        timeout: float | None = None,
    ) -> "Future[BatchRecord]":
        """Submit one custom job to the warm pool; resolve to its record.

        The asynchronous bridge for services built on the pool: unlike
        the ``iter_*``/``extract_*`` batch entry points this neither
        blocks nor orders -- it hands back a
        :class:`concurrent.futures.Future` the caller can await (e.g.
        via :func:`asyncio.wrap_future`) while other submissions are in
        flight.  The persistent pool is shared with the batch entry
        points and reused across calls.

        *timeout* overrides the extractor-level per-form timeout for this
        submission; a custom job sees only its ``SIGALRM`` backstop.

        The future resolves to a :class:`BatchRecord` -- per-form
        failures come back as records with ``error`` set, exactly like
        the batch paths.  It *raises* only for infrastructure faults
        (notably :class:`~concurrent.futures.process.BrokenProcessPool`
        when a worker died); after :meth:`close`, the next submission
        transparently rebuilds the pool.

        With ``jobs=1`` the job runs before this returns, in the calling
        thread, and the future comes back finished.
        """
        pool = self._get_pool(self._workers)
        inner = pool.submit(
            _extract_chunk, "custom", [(0, (job_fn, item))],
            timeout if timeout is not None else self.timeout,
        )
        outer: "Future[BatchRecord]" = Future()

        def _unwrap(done: "Future[list[BatchRecord]]") -> None:
            if done.cancelled():
                outer.cancel()
                return
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(done.result()[0])

        inner.add_done_callback(_unwrap)
        return outer

    def __enter__(self) -> "BatchExtractor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- token-set batches ------------------------------------------------------

    def iter_tokens(self, token_sets: Iterable[list[Token]]) -> BatchStream:
        """Extract each token set; yield records in input order."""
        return self._stream(list(token_sets), "tokens")

    def extract_tokens(self, token_sets: Iterable[list[Token]]) -> BatchReport:
        """Extract every token set into an aggregated report."""
        return self.iter_tokens(token_sets).report()

    # -- html batches ------------------------------------------------------------

    def iter_html(self, sources: Iterable[str]) -> BatchStream:
        """Extract the first form of each HTML page; records in input order."""
        return self._stream(list(sources), "html")

    def extract_html(self, sources: Iterable[str]) -> BatchReport:
        """Extract every HTML page into an aggregated report."""
        return self.iter_html(sources).report()

    # -- custom jobs -------------------------------------------------------------

    def iter_custom(self, job_fn: CustomJob, items: Iterable[Any]) -> BatchStream:
        """Run a custom per-form job (module-level callable) over *items*.

        The job receives ``(extractor, item)`` in the worker and returns an
        :class:`ExtractionResult`.  This is also the fault-injection seam
        the failure-tolerance tests use: a job that hangs or kills its
        process exercises the timeout and pool-recovery machinery.
        """
        return self._stream([(job_fn, item) for item in items], "custom")

    def extract_custom(
        self, job_fn: CustomJob, items: Iterable[Any]
    ) -> BatchReport:
        """Run a custom job over every item into an aggregated report."""
        return self.iter_custom(job_fn, items).report()

    # -- internals ----------------------------------------------------------------

    def _stream(self, items: list, kind: str) -> BatchStream:
        info = _RunInfo()
        return BatchStream(
            self._iter(items, kind, info), info, self.jobs, cache=self.cache
        )

    def _iter(
        self, items: list, kind: str, info: _RunInfo
    ) -> Iterator[BatchRecord]:
        """The one loop from inputs to ordered records, for every ``jobs``."""
        # Generator body: nothing runs until the first record is pulled,
        # and that is exactly when the wall clock starts.
        info.started = time.perf_counter()
        try:
            signatures = [_signature_for(kind, payload) for payload in items]
            keys, resumed = self._resolve_journal(signatures, info)
            # A token job carries its signature, so the extractor that
            # runs it does not hash the tokens again.
            payloads = dict(enumerate(
                zip(items, signatures) if kind == "tokens" else items
            ))
            attempts = {index: 0 for index in payloads}
            results: dict[int, BatchRecord] = dict(resumed)
            remaining = set(payloads) - results.keys()
            next_emit = 0

            # -- dedupe / cache plan: hash inputs before any dispatch ----
            #
            # The first input with a given signature is its group's
            # *leader*; later duplicates are *followers*, held back (never
            # dispatched) until the leader's record is final, then served a
            # replica of it.  Cached signatures short-circuit the whole
            # group.  Unsignable payloads (custom jobs, inputs the hasher
            # chokes on) stay individual dispatches.
            followers_of: dict[int, list[int]] = {}
            held: set[int] = set()
            leader_by_sig: dict[str, int] = {}
            for index in sorted(remaining):
                sig = signatures[index]
                if sig is None:
                    continue
                leader = leader_by_sig.setdefault(sig, index)
                if leader != index:
                    followers_of.setdefault(leader, []).append(index)
                    held.add(index)
                    info.dedupe_collapsed += 1
            # One lookup per distinct signed input.  A leader that misses
            # here is counted when its record is final: the extractor's own
            # token-level cache may still answer it.
            looked_up: set[int] = set()
            if self.cache is not None:
                for sig, leader in leader_by_sig.items():
                    entry = self.cache.get(sig)
                    if entry is None:
                        looked_up.add(leader)
                        continue
                    info.cache_hits += 1
                    results[leader] = _record_from_entry(entry, leader)
                    remaining.discard(leader)
                    for follower in followers_of.pop(leader, ()):
                        held.discard(follower)
                        replica = _record_from_entry(entry, follower)
                        replica.deduped = True
                        results[follower] = replica
                        remaining.discard(follower)

            def emit_ready() -> Iterator[BatchRecord]:
                nonlocal next_emit
                while next_emit in results:
                    record = results.pop(next_emit)
                    # Checkpointing is centralized here -- every final
                    # record crosses this yield, however it was produced.
                    if self._journal is not None and not record.resumed:
                        self._journal.append(
                            keys[record.index], record.to_payload()
                        )
                    yield record
                    next_emit += 1

            def finalize(record: BatchRecord) -> bool:
                """Account one attempt; True when the record is final."""
                index = record.index
                attempts[index] += 1
                record.attempts = attempts[index]
                if record.error is not None and attempts[index] <= self.retries:
                    self._backoff(attempts[index], index, record.error)
                    return False
                results[index] = record
                remaining.discard(index)
                if (record.trace or {}).get("tags", {}).get("cache_hit"):
                    record.cached = True  # the extractor's token-level cache answered
                if index in looked_up:
                    if record.cached:
                        info.cache_hits += 1
                    else:
                        info.cache_misses += 1
                sig = signatures[index]
                if sig is not None and self.cache is not None:
                    _cache_record(self.cache, sig, record)
                for follower in followers_of.pop(index, ()):
                    held.discard(follower)
                    if record.ok:
                        # Extraction is deterministic: replay the leader's
                        # outcome (fresh model, replayed stats).
                        results[follower] = _replicate_record(record, follower)
                        remaining.discard(follower)
                    # A failed leader promotes its followers to individual
                    # dispatch on the next round instead of copying an
                    # error that may have been environmental (timeout,
                    # crash).
                return True

            yield from emit_ready()
            # jobs=1 is a pool of one: one form in flight, so records stay
            # lazy, and isolation is never a degradation there.
            in_process = self.jobs == 1
            while remaining:
                isolated = (
                    not in_process
                    and info.pool_restarts >= self.max_pool_restarts
                )
                if isolated and not info.degraded:
                    info.degraded = True
                    log_event(
                        _logger, logging.WARNING, "batch.degraded_isolation",
                        pool_restarts=info.pool_restarts,
                        unresolved=len(remaining),
                    )
                workers = 1 if isolated else self._workers
                pool = self._get_pool(workers)
                try:
                    runner = (
                        self._run_isolated(
                            pool, kind, payloads, remaining, finalize, info
                        )
                        if isolated or in_process
                        else self._run_pooled(
                            pool, workers, kind, payloads, remaining, held,
                            finalize,
                        )
                    )
                    for _ in runner:
                        yield from emit_ready()
                except BrokenProcessPool:
                    info.pool_restarts += 1
                    self.close()
                    log_event(
                        _logger, logging.WARNING, "batch.pool_died",
                        pool_restarts=info.pool_restarts,
                        unresolved=len(remaining),
                        degrading=info.pool_restarts >= self.max_pool_restarts,
                    )
                yield from emit_ready()
            yield from emit_ready()
        finally:
            info.finished = time.perf_counter()

    def _resolve_journal(
        self, signatures: list[str | None], info: _RunInfo
    ) -> tuple[dict[int, str], dict[int, BatchRecord]]:
        """Journal keys for every input, plus resume-replayed records.

        Only records journaled as successful are replayed; failures (and
        journal lines that fail to rebuild) stay in the work list.
        """
        if self._journal is None:
            return {}, {}
        keys = {
            index: job_key(index, signature)
            for index, signature in enumerate(signatures)
        }
        resumed: dict[int, BatchRecord] = {}
        if self.resume:
            info.journal_corrupt_lines = self._journal.corrupt_lines
            for index, key in keys.items():
                payload = self._journal.completed_payload(key)
                if payload is None:
                    continue
                record = BatchRecord.from_payload(payload, index)
                if record.ok:
                    resumed[index] = record
                    info.resume_skipped += 1
            if resumed or self._journal.corrupt_lines:
                log_event(
                    _logger, logging.INFO, "batch.resume",
                    skipped=len(resumed),
                    corrupt_lines=self._journal.corrupt_lines,
                    total=len(signatures),
                )
        return keys, resumed

    def _local_extractor(self) -> FormExtractor:
        """The in-process extractor for ``jobs=1`` (never the worker global)."""
        if self._serial_extractor is None:
            self._serial_extractor = _build_extractor(
                self.parser_config, self.cache, self.resilience
            )
        return self._serial_extractor

    def _get_pool(self, workers: int) -> Executor:
        """The persistent executor, (re)built only when needed.

        ``jobs=1`` gets the in-process executor.  Otherwise, reusing the
        pool across ``extract_*`` calls keeps workers -- and their
        initialized grammar, schedule, and cache -- warm.  Where the
        platform offers the ``fork`` start method, the parent pre-builds
        the grammar and schedule first, so workers inherit the warmed
        caches through copy-on-write instead of rebuilding them.
        """
        if self._pool is not None and self._pool_workers != workers:
            self.close()
        if self._pool is not None:
            return self._pool
        self._pool_workers = workers
        if self.jobs == 1:
            self._pool = _InProcessExecutor(self._local_extractor())
        else:
            mp_context = None
            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
                try:
                    # Pre-warm before forking: children inherit the
                    # grammar/schedule caches *and* the warmup parse's
                    # import/alloc state (parser core, geometry table)
                    # through copy-on-write.
                    self._local_extractor().warmup()
                except Exception:  # noqa: BLE001 - workers surface the error
                    pass
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(
                    self.parser_config,
                    self._worker_cache_spec(),
                    self.resilience,
                ),
            )
        return self._pool

    def _worker_cache_spec(self) -> CacheSpec:
        """How workers should cache: share our disk file, or memory-only."""
        if self.cache is None:
            return None
        if self.cache.path is not None:
            return ("disk", str(self.cache.path), self.cache.capacity)
        return ("memory", self.cache.capacity)

    @staticmethod
    def _auto_chunksize(count: int, workers: int) -> int:
        """Inputs per IPC round-trip: about four waves per worker.

        Large enough to amortize pickling, small enough that every worker
        gets several chunks (load balancing) and a crashed chunk forfeits
        little work; capped so huge batches still stream results.
        """
        if count <= 0:
            return 1
        return max(1, min(64, -(-count // (workers * 4))))

    def _run_pooled(
        self,
        pool: Executor,
        workers: int,
        kind: str,
        payloads: dict[int, Any],
        remaining: set[int],
        held: set[int],
        finalize: Callable[[BatchRecord], bool],
    ) -> Iterator[None]:
        """Normal mode: chunked fan-out over the full pool.

        Yields (nothing meaningful) after each completed future so the
        caller can flush ordered records.  Raises
        :class:`BrokenProcessPool` when a worker crash kills the pool;
        everything not yet finalized stays in *remaining* for the caller
        to requeue on a fresh pool.  Indices in *held* (dedupe followers
        awaiting their leader) are never dispatched here.
        """
        todo = sorted(remaining - held)
        if not todo:
            # Defensive: every remaining index claims to await a leader,
            # but leaders always resolve or promote their followers --
            # dispatch them individually rather than spin.
            held.clear()
            todo = sorted(remaining)
        chunksize = self.chunksize or self._auto_chunksize(len(todo), workers)
        inflight: dict[Future, list[int]] = {}
        for start in range(0, len(todo), chunksize):
            indices = todo[start:start + chunksize]
            future = pool.submit(
                _extract_chunk, kind,
                [(index, payloads[index]) for index in indices],
                self.timeout,
            )
            inflight[future] = indices
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                indices = inflight.pop(future)
                # Raises BrokenProcessPool when the pool died under this
                # chunk; the orchestrator handles recovery.
                for record in future.result():
                    if not finalize(record):
                        retry = pool.submit(
                            _extract_chunk, kind,
                            [(record.index, payloads[record.index])],
                            self.timeout,
                        )
                        inflight[retry] = [record.index]
            yield None

    def _run_isolated(
        self,
        pool: Executor,
        kind: str,
        payloads: dict[int, Any],
        remaining: set[int],
        finalize: Callable[[BatchRecord], bool],
        info: _RunInfo,
    ) -> Iterator[None]:
        """One worker, one form in flight: ``jobs=1`` and degraded mode.

        In degraded mode a pool death identifies its culprit exactly --
        that form is recorded as a ``WorkerCrash`` error (or retried, if
        attempts remain) on a rebuilt pool, and the batch marches on.

        Dedupe followers need no special handling here: a follower's
        index is always greater than its leader's, so by the time the
        scan reaches it the leader has resolved it (skipped by the
        ``remaining`` guard) or promoted it to individual dispatch.
        """
        current = pool
        for index in sorted(remaining):
            while index in remaining:
                try:
                    record = current.submit(
                        _extract_chunk, kind,
                        [(index, payloads[index])],
                        self.timeout,
                    ).result()[0]
                except BrokenProcessPool:
                    info.pool_restarts += 1
                    log_event(
                        _logger, logging.WARNING, "batch.worker_crash",
                        index=index, pool_restarts=info.pool_restarts,
                    )
                    record = BatchRecord(
                        index=index,
                        error="WorkerCrash: worker process died "
                              "extracting this form",
                    )
                    self.close()
                    current = self._get_pool(workers=1)
                finalize(record)
                yield None

    def _backoff(self, attempt: int, index: int, error: str | None) -> None:
        log_event(
            _logger, logging.INFO, "batch.retry",
            index=index, attempt=attempt, error=error,
        )
        delay = self.retry_backoff * (2 ** (attempt - 1))
        if delay > 0:
            time.sleep(delay)
