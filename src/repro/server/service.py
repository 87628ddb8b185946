"""The extraction service: admission control + dispatch onto the pool.

:class:`ExtractionService` is the asyncio-facing heart of the serving
tier.  One request flows through::

    cache lookup ──hit──────────────────────────► replayed result
         │miss
    circuit breaker (pool health) ──open──► fast 503 + Retry-After
         │closed
    fairness gate (per-client slots + token bucket) ──over-share──► 429
         │within share
    admission (queue depth / deadline projection) ──shed──► 429
         │admit
    BatchExtractor.submit_custom: fork-warmed pool (jobs >= 2), or its
    in-process executor on one worker thread (jobs = 1)
         │
    per-request degradation ladder (deadline → capped/heuristic/minimal)
         │
    result + metrics + cache fill (full-level results only)

Cache keys carry a *generation* tag (the grammar fingerprint by
default), so a grammar change -- or ``DELETE /cache`` -- invalidates
every cached signature logically without touching the disk file.

Everything below the admission gate is the substrate from PRs 1-4: the
content-addressed :class:`~repro.cache.ExtractionCache`, the persistent
:class:`~repro.batch.BatchExtractor` pool (reused via its
:meth:`~repro.batch.BatchExtractor.submit_custom` bridge), and the
degradation ladder of its workers' extractors with the request's own
deadline as the guard's deadline -- a hostile payload degrades to a
cheaper model and still returns HTTP 200, it never kills a worker or the
event loop.

Load shedding has two triggers, both answered as HTTP 429 upstream:

* **queue depth** -- more than ``max_queue`` requests admitted but
  unfinished;
* **deadline projection** -- the ladder pre-check: with the queue ahead
  of it, a request projected (EWMA of recent service times x queue
  waves) to burn its whole deadline before starting would come back
  below ``capped`` (an empty ``minimal`` token dump at best), so the
  honest answer is "retry later", not a junk model.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import logging
import math
import secrets
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.batch.cpu import usable_cores
from repro.batch.extractor import (
    BatchExtractor,
    BatchRecord,
    _cache_record,
    _record_from_entry,
    _signature_for,
)
from repro.cache import CACHE_FILENAME, ExtractionCache, grammar_fingerprint
from repro.extractor import ExtractionResult, FormExtractor
from repro.observability.logs import get_logger, log_event
from repro.observability.metrics import MetricsRegistry
from repro.resilience.ladder import LEVEL_FULL, ResilienceConfig
from repro.server.breaker import CircuitBreaker
from repro.server.config import ServerConfig
from repro.server.fairness import FairnessGate, FairnessLimited

_logger = get_logger("repro.server")


class ServiceSaturated(Exception):
    """The service shed this request; retry after ``retry_after`` seconds."""

    def __init__(self, detail: str, retry_after: float):
        self.detail = detail
        self.retry_after = retry_after
        super().__init__(detail)


class ServiceUnavailable(Exception):
    """The service cannot take requests (draining, breaker open, or the
    pool is gone).  ``retry_after`` (when set) rides on the response as a
    ``Retry-After`` hint -- a breaker fast-fail tells the client when the
    next probe could run."""

    def __init__(self, detail: str, retry_after: float | None = None):
        self.detail = detail
        self.retry_after = retry_after
        super().__init__(detail)


def _serve_job(
    extractor: FormExtractor, arg: tuple[str, int, float]
) -> ExtractionResult:
    """Worker-side job for one served request (module-level: pickles).

    The worker's extractor runs the degradation ladder; the request's
    deadline reaches its guard, so a breach degrades the model instead
    of erroring the record.
    """
    html, form_index, deadline = arg
    return extractor.extract_detailed(html, form_index, deadline=deadline)


@dataclass
class ServeResult:
    """Outcome of one served extraction, ready for the response encoder."""

    record: BatchRecord
    request_id: str
    elapsed_seconds: float
    cached: bool = False

    @property
    def degrade_level(self) -> str:
        tags = (self.record.trace or {}).get("tags", {})
        return str(tags.get("degrade.level", LEVEL_FULL))

    @property
    def ok(self) -> bool:
        return self.record.ok


class ExtractionService:
    """Admission-controlled extraction on the warm pool (see module doc).

    All coroutine methods must be called from one event loop; the heavy
    lifting happens in worker processes (or the single worker thread for
    ``jobs=1``), so the loop only ever runs bookkeeping.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Fast-fail on a defective grammar before any pool forks or the
        # port binds: a bad grammar should kill the deploy loudly, not
        # degrade every extraction quietly.
        if self.config.validate_grammar:
            self._validate_startup_grammar()
        jobs = self.config.jobs
        if jobs == "auto":
            jobs = usable_cores()
        self.workers: int = max(1, int(jobs))
        self.cache: ExtractionCache | None = None
        if self.config.cache:
            cache_path = (
                Path(self.config.cache_dir) / CACHE_FILENAME
                if self.config.cache_dir is not None
                else None
            )
            self.cache = ExtractionCache(
                capacity=self.config.cache_capacity, path=cache_path
            )
        self._batch = BatchExtractor(
            jobs=self.workers,
            resilience=ResilienceConfig(limits=self.config.limits),
        )
        # jobs=1 extracts in this process, so it still leaves the event
        # loop: one worker thread, where the ladder's cooperative deadline
        # bounds each request.
        self._thread: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve")
            if self.workers == 1
            else None
        )
        self._inflight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._ewma_seconds: float | None = None
        self._session = secrets.token_hex(3)
        self._sequence = itertools.count(1)
        self.fairness = FairnessGate(
            max_inflight=self.config.client_max_inflight,
            rate=self.config.client_rate,
            burst=self.config.client_burst,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            window_seconds=self.config.breaker_window_seconds,
            reset_seconds=self.config.breaker_reset_seconds,
            on_transition=self._on_breaker_transition,
        )
        # Cache generation: explicit tag, else the grammar fingerprint --
        # a grammar change re-keys every cached signature logically.
        self._base_generation = (
            self.config.cache_generation
            if self.config.cache_generation is not None
            else self._grammar_generation()
        )
        self._generation_serial = 0
        self._cache_generation = self._base_generation

    @staticmethod
    def _grammar_generation() -> str:
        from repro.grammar.standard import build_standard_grammar

        return grammar_fingerprint(build_standard_grammar())

    @staticmethod
    def _validate_startup_grammar() -> None:
        """Lint the serving grammar; raise on error-severity findings.

        Raises :class:`repro.analysis.GrammarDiagnosticsError`, which
        carries the full report -- the operator sees every defect in the
        startup traceback, not just the first.  Imports are deliberately
        lazy (and re-resolved per call) so deployments that never
        validate don't pay for the analyzer, and tests can monkeypatch
        ``repro.grammar.standard.build_standard_grammar``.
        """
        import repro.grammar.standard as standard_module
        from repro.analysis import analyze_grammar

        report = analyze_grammar(
            standard_module.build_standard_grammar(), name="serving"
        )
        log_event(
            _logger,
            logging.INFO,
            "serve.grammar.validated",
            errors=len(report.errors),
            warnings=len(report.warnings),
            infos=len(report.infos),
        )
        report.raise_if_errors()

    # -- lifecycle ----------------------------------------------------------------

    def warm(self) -> int:
        """Fork and warm the worker pool now; returns the worker count."""
        return self._batch.warm()

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet finished (queued + running)."""
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def cache_generation(self) -> str:
        """The generation tag currently folded into every cache key."""
        return self._cache_generation

    def bump_cache_generation(self) -> tuple[str, str]:
        """Invalidate the serve cache logically; returns (old, new) tags.

        Every key the service writes or looks up is prefixed with the
        generation, so bumping it makes all previously cached signatures
        miss -- in memory *and* in the shared disk file -- without
        touching the file itself.  Old-generation lines simply become
        unreachable; the disk stays append-only and other processes on
        the old generation are unaffected.
        """
        old = self._cache_generation
        self._generation_serial += 1
        self._cache_generation = (
            f"{self._base_generation}#{self._generation_serial}"
        )
        self.metrics.inc("serve.cache.invalidations")
        log_event(
            _logger, logging.INFO, "serve.cache.invalidated",
            previous=old, generation=self._cache_generation,
        )
        return old, self._cache_generation

    def _on_breaker_transition(self, old_state: str, new_state: str) -> None:
        self.metrics.inc(f"serve.breaker.{new_state.replace('-', '_')}")
        log_event(
            _logger, logging.WARNING, "serve.breaker.state",
            previous=old_state, state=new_state,
        )

    async def drain(self) -> bool:
        """Graceful shutdown: stop admitting, wait for in-flight work.

        Returns True when the queue drained inside ``drain_seconds``;
        either way the pool and worker thread are torn down afterwards
        and the service refuses new work.
        """
        self._draining = True
        drained = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_seconds
            )
        except asyncio.TimeoutError:
            drained = False
        self._batch.close()
        if self._thread is not None:
            self._thread.shutdown(wait=drained, cancel_futures=True)
        log_event(
            _logger, logging.INFO, "serve.drained",
            drained=drained, abandoned=self._inflight,
        )
        return drained

    # -- request path -------------------------------------------------------------

    def next_request_id(self) -> str:
        return f"{self._session}-{next(self._sequence):06x}"

    async def extract(
        self,
        html: str,
        form_index: int = 0,
        deadline_seconds: float | None = None,
        request_id: str | None = None,
        client: str | None = None,
    ) -> ServeResult:
        """Serve one extraction (cache → breaker → fairness → admission →
        pool → ladder).

        Raises :class:`ServiceSaturated` when shed (global queue *or*
        this client's own share) and :class:`ServiceUnavailable` while
        draining, with the breaker open, or after repeated worker
        deaths; every other outcome -- including hostile payloads --
        resolves to a :class:`ServeResult`.  *client* is the fairness
        key (header or peer address); ``None`` bypasses per-client
        bounds.
        """
        started = time.perf_counter()
        request_id = request_id or self.next_request_id()
        deadline = self._clamp_deadline(deadline_seconds)
        self.metrics.inc("serve.requests")
        signature = self._signature(html, form_index)
        hit = self._cache_lookup(signature, request_id, started)
        if hit is not None:
            return hit  # hits need no workers: no breaker, no fairness
        self._check_breaker()
        self._acquire_client(client)
        try:
            self._admit(deadline)
        except BaseException:
            self._release_client(client)
            raise
        return await self._serve_admitted(
            html, form_index, deadline, request_id, started, signature, client
        )

    async def _serve_admitted(
        self,
        html: str,
        form_index: int,
        deadline: float,
        request_id: str,
        started: float,
        signature: str | None,
        client: str | None = None,
    ) -> ServeResult:
        """Dispatch one already-admitted request; always releases its slot."""
        try:
            record = await self._dispatch(html, form_index, deadline)
        finally:
            self._release()
            self._release_client(client)
        elapsed = time.perf_counter() - started
        self._note_service_time(elapsed)
        result = ServeResult(
            record=record, request_id=request_id, elapsed_seconds=elapsed
        )
        self._account(result, signature)
        return result

    def _cache_lookup(
        self, signature: str | None, request_id: str, started: float
    ) -> ServeResult | None:
        """A replayed result on a cache hit (hits never queue), else None."""
        if signature is None or self.cache is None:
            return None
        entry = self.cache.get(signature)
        if entry is None:
            self.metrics.inc("serve.cache.misses")
            return None
        self.metrics.inc("serve.cache.hits")
        record = _record_from_entry(entry, 0)
        elapsed = time.perf_counter() - started
        self.metrics.observe("serve.latency.seconds", elapsed)
        return ServeResult(
            record=record,
            request_id=request_id,
            elapsed_seconds=elapsed,
            cached=True,
        )

    async def extract_batch(
        self,
        items: list[str],
        form_index: int = 0,
        deadline_seconds: float | None = None,
        request_id: str | None = None,
        client: str | None = None,
    ) -> list[ServeResult]:
        """Serve a list of documents concurrently, results in input order.

        The whole batch is admitted (or shed) atomically: partial
        admission would return a mix of records and 429s inside one
        response body, which no client can retry sanely.  The fairness
        gate treats the batch as ``len(items)`` admissions by *client* --
        also all-or-nothing.
        """
        request_id = request_id or self.next_request_id()
        if len(items) > self.config.max_batch_items:
            raise ServiceSaturated(
                f"batch of {len(items)} exceeds max_batch_items "
                f"{self.config.max_batch_items}",
                retry_after=self.config.retry_after_seconds,
            )
        deadline = self._clamp_deadline(deadline_seconds)
        if self._draining:
            raise ServiceUnavailable("service is draining")
        self._check_breaker()
        self._acquire_client(client, count=len(items))
        if self._inflight + len(items) > self.config.max_queue:
            self._release_client(client, count=len(items))
            self.metrics.inc("serve.shed", len(items))
            raise ServiceSaturated(
                f"queue depth {self._inflight} + batch {len(items)} exceeds "
                f"max_queue {self.config.max_queue}",
                retry_after=self._retry_after(),
            )

        async def _one(position: int, html: str) -> ServeResult:
            started = time.perf_counter()
            item_id = f"{request_id}.{position}"
            self.metrics.inc("serve.requests")
            signature = self._signature(html, form_index)
            hit = self._cache_lookup(signature, item_id, started)
            if hit is not None:
                self._release()  # pre-admitted slot unused by a cache hit
                self._release_client(client)
                return hit
            return await self._serve_admitted(
                html, form_index, deadline, item_id, started, signature, client
            )

        # Admit the whole batch up front so concurrent singles cannot
        # wedge partial admission in between the items.
        self._admit_bulk(len(items))
        return list(
            await asyncio.gather(*(
                _one(position, item) for position, item in enumerate(items)
            ))
        )

    # -- admission ----------------------------------------------------------------

    def _clamp_deadline(self, requested: float | None) -> float:
        if requested is None or requested <= 0:
            return self.config.default_deadline_seconds
        return min(requested, self.config.max_deadline_seconds)

    def _retry_after(self) -> float:
        estimate = (
            self._ewma_seconds * max(1, self._inflight) / self.workers
            if self._ewma_seconds is not None
            else 0.0
        )
        return max(self.config.retry_after_seconds, estimate)

    def _check_breaker(self) -> None:
        """Fast-fail when the breaker is open (cache hits never get here)."""
        if not self.breaker.allow():
            self.metrics.inc("serve.breaker.fast_fail")
            raise ServiceUnavailable(
                "circuit breaker open: worker pool is unhealthy",
                retry_after=self.breaker.retry_after(),
            )

    def _acquire_client(self, client: str | None, count: int = 1) -> None:
        """Per-client fairness admission; sheds as :class:`ServiceSaturated`.

        Also rolls back a half-open breaker probe on shed -- a request
        that never dispatches must not consume the probe slot.
        """
        if client is None or not self.fairness.enabled:
            return
        try:
            self.fairness.acquire(client, count)
        except FairnessLimited as exc:
            self.metrics.inc("serve.fairness.shed", count)
            self.metrics.inc(f"serve.fairness.shed.{exc.reason}")
            log_event(
                _logger, logging.INFO, "serve.fairness.shed",
                client=client, reason=exc.reason, count=count,
            )
            self.breaker.abort_probe()
            raise ServiceSaturated(
                exc.detail,
                retry_after=max(exc.retry_after, self.config.retry_after_seconds),
            ) from exc

    def _release_client(self, client: str | None, count: int = 1) -> None:
        if client is not None:
            self.fairness.release(client, count)

    def _admit(self, deadline: float) -> None:
        if self._draining:
            self.breaker.abort_probe()
            raise ServiceUnavailable("service is draining")
        if self._inflight >= self.config.max_queue:
            self.metrics.inc("serve.shed")
            self.breaker.abort_probe()
            raise ServiceSaturated(
                f"queue depth {self._inflight} at max_queue "
                f"{self.config.max_queue}",
                retry_after=self._retry_after(),
            )
        if self._ewma_seconds is not None:
            # Ladder pre-check: queue waves ahead of this request times
            # the recent per-request cost.  A request that would spend
            # its whole deadline waiting lands below `capped` -- shed it
            # while the client can still do something useful.
            projected_wait = (
                math.floor(self._inflight / self.workers) * self._ewma_seconds
            )
            if projected_wait >= deadline:
                self.metrics.inc("serve.shed")
                self.breaker.abort_probe()
                raise ServiceSaturated(
                    f"projected queue wait {projected_wait:.2f}s exceeds "
                    f"request deadline {deadline:g}s",
                    retry_after=self._retry_after(),
                )
        self._inflight += 1
        self._idle.clear()
        self.metrics.observe("serve.queue.depth", self._inflight)

    def _admit_bulk(self, count: int) -> None:
        """Reserve *count* queue slots at once (the /batch endpoint)."""
        self._inflight += count
        if count:
            self._idle.clear()
        self.metrics.observe("serve.queue.depth", self._inflight)

    def _release(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    def _note_service_time(self, seconds: float) -> None:
        if self._ewma_seconds is None:
            self._ewma_seconds = seconds
        else:
            self._ewma_seconds = 0.2 * seconds + 0.8 * self._ewma_seconds

    # -- dispatch -----------------------------------------------------------------

    async def _dispatch(
        self, html: str, form_index: int, deadline: float
    ) -> BatchRecord:
        arg = (html, form_index, deadline)
        try:
            record = await self._submit(arg, deadline)
        except BrokenProcessPool:
            # A worker died under this request (or a neighbour's).  Tear
            # the pool down and retry once on a fresh one -- extraction
            # is deterministic, so a second death pins this payload.
            self.metrics.inc("serve.pool_restarts")
            self.breaker.record_failure()
            log_event(
                _logger, logging.WARNING, "serve.pool_died", retrying=True
            )
            self._restart_workers()
            try:
                record = await self._submit(arg, deadline)
            except BrokenProcessPool as exc:
                self.metrics.inc("serve.worker_crashes")
                self.breaker.record_failure()
                raise ServiceUnavailable(
                    "worker process died twice extracting this payload",
                    retry_after=self.breaker.retry_after(),
                ) from exc
        self.breaker.record_success()
        return record

    async def _submit(self, arg: tuple, deadline: float) -> BatchRecord:
        """One raw submission to the workers (the chaos-injection seam).

        Every path to the pool -- or the jobs=1 worker thread -- funnels
        through here, so the chaos harness can wrap exactly this method
        to inject :class:`BrokenProcessPool` and latency, exercising the
        *real* restart/breaker recovery above it.  The *deadline* also
        arms the batch engine's ``SIGALRM`` backstop, in pool workers.
        """
        submit = functools.partial(
            self._batch.submit_custom, _serve_job, arg, timeout=deadline
        )
        if self._thread is None:
            future = submit()
        else:  # jobs=1: the submission itself runs the extraction
            future = await asyncio.get_running_loop().run_in_executor(
                self._thread, submit
            )
        return await asyncio.wrap_future(future)

    def _restart_workers(self) -> None:
        """Tear down a broken pool so the next submit re-forks it."""
        self._batch.close()

    # -- accounting ---------------------------------------------------------------

    def _signature(self, html: str, form_index: int) -> str | None:
        if self.cache is None:
            return None
        signature = _signature_for("html", html)
        if signature is None:
            return None
        # The generation prefix namespaces every key: bumping the
        # generation (grammar change, DELETE /cache) re-keys the whole
        # cache without touching the disk file.
        keyed = f"{self._cache_generation}|{signature}"
        return keyed if form_index == 0 else f"{keyed}|form={form_index}"

    def _account(self, result: ServeResult, signature: str | None) -> None:
        record = result.record
        self.metrics.observe(
            "serve.latency.seconds", result.elapsed_seconds
        )
        if record.trace is not None:
            # Thread the request id into the trace before folding it into
            # the registry -- log pipelines join access lines to span
            # metrics on this tag.
            record.trace.setdefault("tags", {})["request_id"] = (
                result.request_id
            )
            self.metrics.record_trace(record.trace)
        level = result.degrade_level
        if not record.ok:
            self.metrics.inc("serve.errors")
        elif level != LEVEL_FULL:
            self.metrics.inc("serve.degraded")
            self.metrics.inc(f"degrade.{level}")
        if signature is not None and self.cache is not None:
            _cache_record(self.cache, signature, record)
