"""Timing machinery shared by every workload.

* Host-normalised time.  A shared virtual machine changes speed from
  one second to the next, so a raw wall time says as much about the host
  as about the program.  Between timed windows the harness runs a fixed pure-Python
  calibration slice (benchmark code, best of three) and scales each
  window's wall time by ``REFERENCE_SLICE_SECONDS`` over the mean of the
  slices before and after it.  Calibration only runs while no request is
  in flight, and it refuses to run while the process has a second thread:
  background work added by the program would slow the slice and so make
  the program's own timings look better.
* Smoothed quantiles that refuse to be read where fewer than ten
  samples lie beyond them.
* A span tracer for the per-layer run.  Spans are opened by the
  benchmark around calls into the program's public entry points and kept
  in memory; cyclic garbage collections become ``gc`` child spans of
  whatever span is open, so a layer's self time excludes them.
"""

from __future__ import annotations

import gc
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

#: Iterations of the calibration loop: about 1 ms on a 2-core x86 VM.
SLICE_ROUNDS = 6_500

#: The slice time that normalised timings are expressed against.  A
#: normalised second is the time the work would take on a host that runs
#: one calibration slice in exactly this long.
REFERENCE_SLICE_SECONDS = 0.001

#: A percentile needs at least this many samples above it.
MIN_SAMPLES_BEYOND = 10

_SLICE_KEYS = tuple(f"key{index}" for index in range(64))
_SLICE_TABLE = {key: index for index, key in enumerate(_SLICE_KEYS)}


def thread_count() -> int:
    """Threads of this process, native ones included where /proc exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def _calibration_slice() -> int:
    """Fixed interpreter work: dict lookups, short-lived tuples, int math."""
    table = _SLICE_TABLE
    keys = _SLICE_KEYS
    total = 0
    for index in range(SLICE_ROUNDS):
        key = keys[index & 63]
        pair = (key, index)
        total += table[pair[0]] * (index % 7) + len(key)
    return total


def calibrate() -> float:
    """Best-of-3 seconds of the calibration slice, with the collector off."""
    threads = thread_count()
    if threads != 1:
        raise RuntimeError(
            f"calibration needs a single-threaded process, found {threads} "
            "threads: background work would skew host normalisation"
        )
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            _calibration_slice()
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


@dataclass
class Window:
    """One timed stretch between two calibrations, with its samples."""

    index: int
    slice_before: float
    slice_after: float = 0.0
    start: float = 0.0
    end: float = 0.0
    #: Raw seconds per operation; ``math.inf`` marks a failed operation.
    samples: list[float] = field(default_factory=list)

    @property
    def raw_seconds(self) -> float:
        return self.end - self.start

    @property
    def factor(self) -> float:
        """Raw-to-normalised scale for everything timed in this window."""
        return REFERENCE_SLICE_SECONDS / (
            (self.slice_before + self.slice_after) / 2.0
        )


class HostClock:
    """Consecutive host-normalised windows, each bracketed by calibrations."""

    def __init__(self) -> None:
        self.windows: list[Window] = []
        self._last_slice = calibrate()

    @contextmanager
    def window(self) -> Iterator[Window]:
        window = Window(index=len(self.windows), slice_before=self._last_slice)
        window.start = time.perf_counter()
        try:
            yield window
        finally:
            window.end = time.perf_counter()
            window.slice_after = self._last_slice = calibrate()
            self.windows.append(window)

    def totals(self) -> dict[str, float]:
        raw = sum(window.raw_seconds for window in self.windows)
        normalised = sum(
            window.raw_seconds * window.factor for window in self.windows
        )
        return {"raw": raw, "normalised": normalised}

    def latencies(self, normalised: bool = True) -> list[float]:
        """Every sample, scaled by its own window's factor when asked."""
        return [
            sample * (window.factor if normalised else 1.0)
            for window in self.windows
            for sample in window.samples
        ]


def percentile(values: list[float], percent: int) -> float:
    """Smoothed percentile: the mean of the samples ranked within
    ``(100 - percent) / 4`` percentile points either side of *percent*.

    Page costs cluster (``stacked`` has 60 distinct pages), and a plain
    nearest-rank p90 jumped between neighbouring clusters from run to run
    (17.5 % IQR/median over ten ``stacked`` runs); the band smooths that.
    Refuses a percentile with fewer than ten samples beyond the band.
    Failed operations enter as ``math.inf`` and so pull the band up.
    """
    if not 0 < percent < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percent}")
    half = Fraction(100 - percent, 4)
    count = len(values)
    low = max(1, math.ceil((percent - half) * count / 100))
    high = math.ceil((percent + half) * count / 100)
    beyond = count - high
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{percent} of {count} samples has {beyond} beyond its band; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    band = sorted(values)[low - 1:high]
    return sum(band) / len(band)


@dataclass
class Span:
    """One traced interval; ``parent`` indexes the tracer's span list."""

    name: str
    item: object
    parent: int | None
    start: float
    end: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "item": self.item,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """In-memory spans around the program's public entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, item: object) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, item, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextmanager
    def span(self, name: str, item: object) -> Iterator[None]:
        self._open(name, item)
        try:
            yield
        finally:
            self._close()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            item = self.spans[self._stack[-1]].item if self._stack else None
            self._open("gc", item)
        elif self._stack and self.spans[self._stack[-1]].name == "gc":
            self._close()

    @contextmanager
    def collecting(self) -> Iterator["Tracer"]:
        """Attribute garbage collections to the open span while active."""
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)

    def self_seconds(self, first: int, last: int) -> dict[str, float]:
        """Per-name self time of spans ``first..last-1`` (children inside)."""
        covered = [0.0] * (last - first)
        for index in range(first, last):
            span = self.spans[index]
            if span.parent is not None and span.parent >= first:
                covered[span.parent - first] += span.end - span.start
        totals: dict[str, float] = {}
        for index in range(first, last):
            span = self.spans[index]
            own = span.end - span.start - covered[index - first]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def count(self, name: str, first: int, last: int) -> int:
        return sum(1 for span in self.spans[first:last] if span.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid*, found by scanning /proc."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry.name))
    return children
