"""The ``serve`` workload: ``repro serve`` in a child process over HTTP.

The load is one client (this process) with two keep-alive connections in
a closed loop -- crawler fetchers that each wait for their reply.  Before
timing, every page of the hot set is requested once; the timed sequence
then sends three hot-page requests for every never-seen page, so the hit
share is fixed by construction.  Calibration runs between windows of
requests, once both connections are idle.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability.prometheus import parse_prometheus
from repro.server.config import ServerConfig

from perfbench.corpus import HOT_PAGES, Page, ServeRequest, serve_cycle
from perfbench.harness import HostClock, Window, child_pids, vm_hwm_mb

#: Requests per timed window (twelve blocks of three hits and one miss).
WINDOW_REQUESTS = 48
#: Every run sends at least this many cycles, and peak RSS is read when
#: they are done: the server's cache and heaps grow with every cycle, so
#: a high-water mark read after a host-speed-dependent number of cycles
#: would not repeat.
MIN_CYCLES = 3
#: Concurrent keep-alive connections of the client.
CONNECTIONS = 2
#: Worker processes of the server under test.
SERVER_JOBS = 2
#: Seconds a server may take to print its address, answer, or stop.
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def child_env(root: Path) -> dict[str, str]:
    """The environment of a child that imports the program from *root*."""
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = (
        f"{source}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else source
    )
    return env


def read_line(stream, timeout: float) -> bytes:
    """One line from a child's pipe, or b"" when none arrives in time."""
    ready, _, _ = select.select([stream], [], [], timeout)
    return stream.readline() if ready else b""


class ServerProcess:
    """``python -m repro serve --port 0 --jobs 2``, otherwise defaults."""

    def __init__(self, root: Path, log_path: Path):
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(SERVER_JOBS)],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        self._workers: set[int] = set()
        line = read_line(self.process.stdout, STARTUP_TIMEOUT)
        match = re.search(rb"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"repro serve did not report its address (got {line!r}); "
                f"see {log_path}"
            )
        self.port = int(match.group(1))

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def wait_ready(self) -> None:
        status, body = self.get("/readyz")
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}: {body[:200]!r}")

    def metrics(self) -> dict[str, float]:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus each of its worker processes."""
        self._workers.update(child_pids(self.process.pid))
        return vm_hwm_mb(self.process.pid) + sum(
            vm_hwm_mb(pid) for pid in self._workers
        )

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure every process is gone."""
        if self.process.poll() is None:
            self._workers.update(child_pids(self.process.pid))
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        for pid in self._workers:
            if not _wait_gone(pid, STOP_TIMEOUT):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                if not _wait_gone(pid, STOP_TIMEOUT):
                    raise RuntimeError(f"server worker {pid} did not exit")
        self.process.stdout.close()
        self._log.close()


def _wait_gone(pid: int, timeout: float) -> bool:
    """True once *pid* has exited (a zombie counts: it runs no more)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
        except OSError:
            return True
        if stat[stat.rindex(")") + 2] == "Z":
            return True
        time.sleep(0.01)
    return False


def extract_payload(html: str) -> bytes:
    body = json.dumps({"html": html}).encode("utf-8")
    head = (
        "POST /extract HTTP/1.1\r\nHost: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


class Connection:
    """One keep-alive HTTP/1.1 connection driven by asyncio streams.

    The socket is connected directly, not through ``asyncio`` name
    resolution, which would start an executor thread and break the
    single-thread rule of calibration.
    """

    def __init__(self, port: int):
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader, self.writer = await asyncio.open_connection(sock=sock)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def exchange(self, payload: bytes) -> tuple[int, bytes]:
        self.writer.write(payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                keep_alive = value.strip().lower() != b"close"
        body = await self.reader.readexactly(length)
        if not keep_alive:
            await self.close()
            await self.open()
        return status, body


@dataclass
class Reply:
    """One request of the timed sequence and what came back."""

    request: ServeRequest
    cycle: int
    window: int
    position: int
    latency: float
    status: int | None = None
    body: bytes = b""
    error: str | None = None
    payload: dict = field(default_factory=dict)

    @property
    def failure(self) -> str | None:
        if self.error is not None:
            return f"raised {self.error}"
        if self.status != 200:
            return f"HTTP {self.status}"
        payload = self.payload
        if payload.get("error"):
            return f"record error {payload['error']}"
        level = payload.get("degrade", {}).get("level")
        if level != "full":
            return f"ladder level {level}"
        if (payload.get("stats") or {}).get("truncated"):
            return "truncated parse"
        return None


async def _drive(
    connection: Connection,
    pending: deque,
    payloads: list[bytes],
    requests: list[ServeRequest],
    cycle: int,
    window: Window,
    replies: list[Reply],
) -> None:
    while pending:
        index = pending.popleft()
        sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(
                connection.exchange(payloads[index]), REQUEST_TIMEOUT
            )
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                ValueError, IndexError) as exc:
            window.samples.append(math.inf)
            replies.append(Reply(
                requests[index], cycle, window.index,
                len(window.samples) - 1, math.inf,
                error=f"{type(exc).__name__}: {exc}",
            ))
            await connection.close()
            await connection.open()
            continue
        latency = time.perf_counter() - sent
        window.samples.append(latency)
        replies.append(Reply(
            requests[index], cycle, window.index, len(window.samples) - 1,
            latency, status, body,
        ))


@dataclass
class TimedServe:
    clock: HostClock
    replies: list[Reply]
    cycles: int
    #: Peak RSS of the server and its workers after ``MIN_CYCLES``.
    peak_rss_mb: float = 0.0


async def _warm_hot_set(port: int, hot: list[Page]) -> list[Reply]:
    """Request every hot page once, one at a time, before timing."""
    connection = Connection(port)
    await connection.open()
    warmed = []
    try:
        for page in hot:
            status, body = await asyncio.wait_for(
                connection.exchange(extract_payload(page.html)),
                REQUEST_TIMEOUT,
            )
            warmed.append(Reply(
                ServeRequest(page, hot=False), -1, -1, -1, 0.0, status, body
            ))
    finally:
        await connection.close()
    return warmed


async def _timed(
    server: ServerProcess, pages: list[Page], hot: list[Page], seed: int,
    seconds: float, max_cycles: int,
) -> TimedServe:
    connections = [Connection(server.port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()
    timed = TimedServe(HostClock(), [], 0)
    clock = timed.clock
    replies = timed.replies
    started = time.perf_counter()
    cycle = 0
    try:
        while cycle < max_cycles and (
            cycle < MIN_CYCLES or time.perf_counter() - started < seconds
        ):
            requests = serve_cycle(pages, hot, seed, cycle)
            payloads = [extract_payload(entry.page.html) for entry in requests]
            for start in range(0, len(requests), WINDOW_REQUESTS):
                pending = deque(
                    range(start, min(start + WINDOW_REQUESTS, len(requests)))
                )
                with clock.window() as window:
                    await asyncio.gather(*(
                        _drive(connection, pending, payloads, requests,
                               cycle, window, replies)
                        for connection in connections
                    ))
            cycle += 1
            if cycle == MIN_CYCLES:
                timed.peak_rss_mb = server.peak_rss_mb()
    finally:
        for connection in connections:
            await connection.close()
    timed.cycles = cycle
    return timed


def max_cycles(corpus_pages: int) -> int:
    """Cycles whose distinct pages all fit the server's default cache."""
    return (ServerConfig().cache_capacity - HOT_PAGES) // corpus_pages


def warm_hot_set(port: int, hot: list[Page]) -> list[Reply]:
    replies = asyncio.run(_warm_hot_set(port, hot))
    for reply in replies:
        reply.payload = json.loads(reply.body) if reply.status == 200 else {}
    return replies


def timed_requests(
    server: ServerProcess, pages: list[Page], hot: list[Page], seed: int,
    seconds: float,
) -> TimedServe:
    timed = asyncio.run(
        _timed(server, pages, hot, seed, seconds, max_cycles(len(pages)))
    )
    for reply in timed.replies:
        if reply.status == 200:
            try:
                reply.payload = json.loads(reply.body)
            except ValueError as exc:
                reply.error = f"bad JSON: {exc}"
        if reply.failure is not None:
            timed.clock.windows[reply.window].samples[reply.position] = math.inf
    return timed
