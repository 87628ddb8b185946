"""Configuration for the extraction service and its HTTP front.

One frozen dataclass so a config can be shipped around (CLI → server →
service) and compared in tests without aliasing surprises.  Every knob
maps onto a piece of the substrate built in earlier PRs: *jobs* sizes the
fork-warmed pool (:class:`~repro.batch.BatchExtractor`), *limits* seeds
the per-request degradation-ladder budgets
(:class:`~repro.resilience.guard.ResourceLimits`), and the cache knobs
configure the content-addressed front
(:class:`~repro.cache.ExtractionCache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.store import DEFAULT_CAPACITY
from repro.resilience.guard import ResourceLimits


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of :class:`~repro.server.ExtractionServer`.

    Attributes:
        host: Bind address (loopback by default; a deployment fronts the
            service with its own ingress).
        port: Bind port; ``0`` asks the kernel for an ephemeral port (the
            bound port is reported by :attr:`ExtractionServer.port`).
        jobs: Worker processes for extraction.  ``"auto"`` (default)
            sizes the pool to the usable cores; ``1`` runs extraction on
            a single in-process worker thread -- no pool, the mode test
            suites and tiny deployments use.
        max_queue: Maximum requests admitted but not yet finished
            (queued + in flight).  Admission past this depth is shed with
            ``429`` and a ``Retry-After`` header.
        default_deadline_seconds: Per-request wall-clock budget when the
            request does not carry ``deadline_seconds`` itself.
        max_deadline_seconds: Hard ceiling on client-requested deadlines.
        max_body_bytes: Request bodies above this are refused with 413
            before any parsing work happens.
        max_batch_items: Ceiling on ``POST /batch`` list length.
        cache: Serve repeated documents from the content-addressed cache
            (keyed on the HTML signature + form index).  Degraded results
            are never cached.
        cache_capacity: In-memory entry bound for the serving cache.
        cache_dir: Optional directory backing the serving cache with a
            shared JSON-lines file that survives restarts.
        cache_generation: Generation tag folded into every serve cache
            key.  ``None`` (default) derives it from the grammar
            fingerprint, so a grammar change invalidates the cache
            logically -- no ``rm -rf`` of the cache dir.  ``DELETE
            /cache`` bumps the live generation the same way.
        limits: Degradation-ladder budgets of the workers' extractors;
            each request's own deadline replaces ``deadline_seconds``.
        retry_after_seconds: Floor for the ``Retry-After`` hint on shed
            responses (the live estimate, when higher, wins).
        drain_seconds: Graceful-shutdown allowance for in-flight requests
            before the pool is torn down anyway.
        client_max_inflight: Per-client cap on admitted-but-unfinished
            requests (``None`` = no cap).  The fairness layer: one greedy
            client sheds 429 while others keep their queue share.
        client_rate: Per-client sustained admissions per second (token
            bucket; ``None`` = unlimited).
        client_burst: Token-bucket capacity when ``client_rate`` is set.
        client_id_header: Request header carrying the client identity;
            requests without it are keyed by peer address.
        idle_timeout_seconds: Keep-alive connections quiet this long are
            closed (no response -- the idle-peer convention).
        header_timeout_seconds: Budget for reading the request head once
            the request line arrived; a trickling peer gets 408.
        body_timeout_seconds: Budget for reading the request body.
        max_connections: Ceiling on concurrently open sockets; the
            connection past it gets a fast 503 and a close.
        breaker_threshold: Pool failures within the window that open the
            circuit breaker (fast 503s instead of restart storms).
        breaker_window_seconds: Sliding window for breaker failures.
        breaker_reset_seconds: Breaker cooldown before a half-open probe.
        validate_grammar: Statically analyze the serving grammar during
            service construction -- *before* the port binds -- and die
            with the full lint report
            (:class:`~repro.analysis.GrammarDiagnosticsError`) if any
            error-severity diagnostic is present.  A grammar defect
            should kill the deploy at startup, not degrade every
            extraction silently.  ``repro serve --no-grammar-check``
            turns it off.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int | str = "auto"
    max_queue: int = 64
    default_deadline_seconds: float = 10.0
    max_deadline_seconds: float = 30.0
    max_body_bytes: int = 2_000_000
    max_batch_items: int = 256
    cache: bool = True
    cache_capacity: int = DEFAULT_CAPACITY
    cache_dir: str | None = None
    cache_generation: str | None = None
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    retry_after_seconds: float = 1.0
    drain_seconds: float = 10.0
    client_max_inflight: int | None = None
    client_rate: float | None = None
    client_burst: float = 10.0
    client_id_header: str = "x-client-id"
    idle_timeout_seconds: float = 75.0
    header_timeout_seconds: float = 10.0
    body_timeout_seconds: float = 20.0
    max_connections: int = 512
    breaker_threshold: int = 5
    breaker_window_seconds: float = 30.0
    breaker_reset_seconds: float = 5.0
    validate_grammar: bool = True

    def __post_init__(self) -> None:
        if self.jobs != "auto" and (
            not isinstance(self.jobs, int) or self.jobs < 1
        ):
            raise ValueError(f"jobs must be >= 1 or 'auto', got {self.jobs!r}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_deadline_seconds <= 0:
            raise ValueError("default_deadline_seconds must be positive")
        if self.max_deadline_seconds < self.default_deadline_seconds:
            raise ValueError(
                "max_deadline_seconds must be >= default_deadline_seconds"
            )
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.max_batch_items < 1:
            raise ValueError("max_batch_items must be >= 1")
        if self.client_max_inflight is not None and self.client_max_inflight < 1:
            raise ValueError(
                "client_max_inflight must be >= 1 or None, "
                f"got {self.client_max_inflight}"
            )
        if self.client_rate is not None and self.client_rate <= 0:
            raise ValueError(
                f"client_rate must be positive or None, got {self.client_rate}"
            )
        if self.client_burst < 1:
            raise ValueError(
                f"client_burst must be >= 1, got {self.client_burst}"
            )
        if not self.client_id_header:
            raise ValueError("client_id_header must be non-empty")
        for name in (
            "idle_timeout_seconds",
            "header_timeout_seconds",
            "body_timeout_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_window_seconds <= 0:
            raise ValueError("breaker_window_seconds must be positive")
        if self.breaker_reset_seconds <= 0:
            raise ValueError("breaker_reset_seconds must be positive")
