"""Set-up time: fresh processes timed from spawn to ready.

A single cold start is noise-prone (the first one also pays for a cold
page cache and bytecode compilation), so every figure is the median of
several starts after one discarded start.

Set-up is host-normalised like every timing, but against a reference
*process start* instead of the in-process calibration slice: a child is
spawned, loads shared libraries and reads bytecode, none of which the
slice exercises, and this process only waits meanwhile.  Measured on a
2-core x86 VM, 20 cold starts of the extractor spread 16 % (coefficient of
variation) raw and 8 % when each is divided by the mean of the reference
starts just before and after it, while dividing by the slice made them
noisier than raw.  The reference is a fixed interpreter start that
imports numpy and a few standard-library packages: benchmark code that
no change to the program can speed up.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.serving import (
    STARTUP_TIMEOUT,
    ServerProcess,
    child_env,
    read_line,
)

COLDSTART = Path(__file__).with_name("coldstart.py")

#: Starts thrown away before the measured ones.
DISCARDED_STARTS = 1

#: The reference start, and the time it is normalised to.
REFERENCE_START = (
    "import numpy, json, asyncio, decimal, email.parser, http.client"
)
REFERENCE_START_SECONDS = 0.25


def _reference_start() -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE_START], check=True,
        timeout=STARTUP_TIMEOUT,
    )
    return time.perf_counter() - started


def _spawn_coldstart(root: Path, mode: str) -> tuple[float, bytes]:
    """Seconds from spawn to the child's first line, and that line."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(COLDSTART), mode],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE,
    )
    try:
        line = read_line(child.stdout, STARTUP_TIMEOUT)
        elapsed = time.perf_counter() - started
    finally:
        if child.wait(timeout=STARTUP_TIMEOUT) != 0:
            raise RuntimeError(f"coldstart {mode} exited {child.returncode}")
        child.stdout.close()
    if not line:
        raise RuntimeError(f"coldstart {mode} printed nothing")
    return elapsed, line


def _serve_start(root: Path, log: Path) -> float:
    started = time.perf_counter()
    server = ServerProcess(root, log)
    try:
        server.wait_ready()
        return time.perf_counter() - started
    finally:
        server.stop()


def _bracketed(starts: int, start) -> list[tuple[float, float, object]]:
    """(raw seconds, normalising factor, extra) of each kept start.

    Reference starts run before the first start and after every start;
    each start is scaled by the mean of the two around it.
    """
    before = _reference_start()
    kept = []
    for number in range(DISCARDED_STARTS + starts):
        seconds, extra = start()
        after = _reference_start()
        factor = REFERENCE_START_SECONDS / ((before + after) / 2.0)
        before = after
        if number >= DISCARDED_STARTS:
            kept.append((seconds, factor, extra))
    return kept


def setup_seconds(
    root: Path, workload: str, starts: int, log: Path
) -> dict[str, float]:
    """Median raw and normalised seconds from spawn to ready.

    ``typical``/``stacked``: ``import repro``, ``FormExtractor()``,
    ``.warmup()``.  ``serve``: ``/readyz`` answers 200.
    """
    if workload == "serve":
        kept = _bracketed(starts, lambda: (_serve_start(root, log), None))
    else:
        kept = _bracketed(
            starts, lambda: _spawn_coldstart(root, "extractor")
        )
    return {
        "raw": statistics.median([seconds for seconds, _, _ in kept]),
        "normalised": statistics.median(
            [seconds * factor for seconds, factor, _ in kept]
        ),
    }


def setup_layers(root: Path, starts: int) -> dict[str, float]:
    """Median normalised milliseconds of each public set-up step."""
    kept = [
        (json.loads(line), factor)
        for _, factor, line in _bracketed(
            starts, lambda: _spawn_coldstart(root, "layers")
        )
    ]
    return {
        f"{name}_ms": 1000.0 * statistics.median(
            [steps[name] * factor for steps, factor in kept]
        )
        for name in kept[0][0]
    }
