"""Deterministic fault injection for the serving tier (the chaos harness).

The service's survival claims -- "a dead worker costs one restart", "a
slow client costs one 408", "a full disk degrades the cache to
memory-only", "a crash storm trips the breaker instead of fork-bombing"
-- are only claims until something actually injects those faults.  This
module is the injector:

* :class:`ChaosMonkey` wraps an :class:`~repro.server.service.\
  ExtractionService`'s submission seam (``_submit``) and its cache's
  ``write_fault_hook`` to inject, on a deterministic schedule:

  - **worker crashes** -- ``BrokenProcessPool`` raised from the seam,
    exercising the real restart/breaker recovery path;
  - **disk-full cache writes** -- ``OSError(ENOSPC)`` from the cache's
    append path, exercising the degrade-to-memory contract;
  - **added latency** -- a pre-dispatch ``asyncio.sleep``, for queue
    buildup without payload tuning.

  Schedules are counter-based (``crash_every=3`` = every third
  submission dies), so a test matrix replays identically every run -- no
  seeds, no clocks.

* The slow-client attackers (:func:`drip_request`,
  :func:`half_open_request`) are plain-socket clients that trickle or
  abandon requests mid-head, the client side of the slowloris defense
  tests.  They are synchronous (run them from test threads) and report
  what the server did: a status line, or a clean close.

The harness lives in ``src`` rather than the test tree because it is a
deployment tool too: ``ChaosMonkey`` against a staging service is the
honest way to rehearse an incident.
"""

from __future__ import annotations

import asyncio
import errno
import socket
from dataclasses import dataclass, field

from repro.server.service import ExtractionService


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic injection schedule.

    ``*_every=N`` fires on every Nth event (1-based: the Nth, 2Nth, ...
    occurrence); ``None`` disables that fault.  ``delay_seconds`` is
    added before every submission.
    """

    crash_every: int | None = None
    disk_full_every: int | None = None
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.crash_every is not None and self.crash_every < 1:
            raise ValueError(f"crash_every must be >= 1, got {self.crash_every}")
        if self.disk_full_every is not None and self.disk_full_every < 1:
            raise ValueError(
                f"disk_full_every must be >= 1, got {self.disk_full_every}"
            )
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")


@dataclass
class ChaosCounters:
    """What the monkey actually did (asserted by the invariant tests)."""

    submissions: int = 0
    crashes_injected: int = 0
    cache_writes: int = 0
    disk_errors_injected: int = 0

    def as_dict(self) -> dict:
        return {
            "submissions": self.submissions,
            "crashes_injected": self.crashes_injected,
            "cache_writes": self.cache_writes,
            "disk_errors_injected": self.disk_errors_injected,
        }


class ChaosMonkey:
    """Installable fault injector over one service (see module docstring).

    Usage::

        monkey = ChaosMonkey(ChaosConfig(crash_every=3))
        monkey.install(service)
        try:
            ...  # drive traffic; every 3rd dispatch dies of BrokenProcessPool
        finally:
            monkey.uninstall()

    Injection happens *inside* the service's recovery scope: an injected
    crash goes through the genuine pool-restart + circuit-breaker path,
    an injected disk error through the cache's degrade-to-memory path.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.counters = ChaosCounters()
        self._service: ExtractionService | None = None
        self._real_submit = None

    def install(self, service: ExtractionService) -> None:
        if self._service is not None:
            raise RuntimeError("ChaosMonkey is already installed")
        self._service = service
        self._real_submit = service._submit
        service._submit = self._chaotic_submit  # type: ignore[method-assign]
        if service.cache is not None:
            service.cache.write_fault_hook = self._cache_write_fault

    def uninstall(self) -> None:
        if self._service is None:
            return
        self._service._submit = self._real_submit  # type: ignore[method-assign]
        if self._service.cache is not None:
            self._service.cache.write_fault_hook = None
        self._service = None
        self._real_submit = None

    # -- injected seams -----------------------------------------------------------

    async def _chaotic_submit(self, arg, deadline):
        from concurrent.futures.process import BrokenProcessPool

        if self.config.delay_seconds:
            await asyncio.sleep(self.config.delay_seconds)
        self.counters.submissions += 1
        every = self.config.crash_every
        if every is not None and self.counters.submissions % every == 0:
            self.counters.crashes_injected += 1
            raise BrokenProcessPool("chaos: injected worker crash")
        return await self._real_submit(arg, deadline)

    def _cache_write_fault(self) -> None:
        self.counters.cache_writes += 1
        every = self.config.disk_full_every
        if every is not None and self.counters.cache_writes % every == 0:
            self.counters.disk_errors_injected += 1
            raise OSError(errno.ENOSPC, "chaos: no space left on device")


# -- slow / hostile clients --------------------------------------------------------


@dataclass
class AttackReport:
    """What one hostile connection observed."""

    #: HTTP status parsed off the wire, or None when the server closed
    #: (or never answered) without a status line.
    status: int | None = None
    #: The server closed the connection (EOF seen).
    closed: bool = False
    #: Raw bytes received (for well-formedness assertions).
    raw: bytes = b""
    notes: list[str] = field(default_factory=list)


def _read_outcome(sock: socket.socket, timeout: float) -> AttackReport:
    """Collect whatever the server sends until close/timeout."""
    report = AttackReport()
    sock.settimeout(timeout)
    chunks: list[bytes] = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                report.closed = True
                break
            chunks.append(chunk)
    except socket.timeout:
        report.notes.append("read timed out")
    except OSError as exc:
        report.closed = True
        report.notes.append(f"reset: {exc}")
    report.raw = b"".join(chunks)
    if report.raw.startswith(b"HTTP/1.1 "):
        try:
            report.status = int(report.raw.split(b" ", 2)[1])
        except (IndexError, ValueError):
            report.notes.append("malformed status line")
    return report


def drip_request(
    host: str,
    port: int,
    payload: bytes,
    chunk_size: int = 1,
    pause_seconds: float = 0.2,
    max_chunks: int | None = None,
    timeout: float = 30.0,
) -> AttackReport:
    """A slowloris: trickle *payload* byte(s) at a time, then listen.

    Sends up to *max_chunks* chunks of *chunk_size* bytes with
    *pause_seconds* between them (``None`` = the whole payload), then
    reads until the server answers or closes.  A defended server cuts
    this off with a 408 (mid-head) or a silent close (idle) long before
    the payload completes.
    """
    import time as _time

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sent = 0
        chunks_sent = 0
        try:
            while sent < len(payload):
                if max_chunks is not None and chunks_sent >= max_chunks:
                    break
                sock.sendall(payload[sent: sent + chunk_size])
                sent += chunk_size
                chunks_sent += 1
                _time.sleep(pause_seconds)
        except OSError:
            pass  # server already gave up on us: read the verdict below
        return _read_outcome(sock, timeout)


def half_open_request(
    host: str, port: int, head: bytes, timeout: float = 30.0
) -> AttackReport:
    """Send a partial request head, then go silent (a half-open client).

    The connection stays open but never completes its request; a
    defended server times the head read out (408) instead of parking a
    coroutine on it forever.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head)
        return _read_outcome(sock, timeout)
