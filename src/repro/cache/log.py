"""Append-only JSON-lines log: the one crash-tolerant file discipline.

The disk backing of :class:`~repro.cache.store.ExtractionCache` and the
batch resume journal (:class:`~repro.batch.journal.BatchJournal`) both
persist records through an :class:`AppendLog`; each keeps only its own
rules on top.  Every line is one record::

    {"v": 2, "sig": KEY, "sum": CRC32, "entry": PAYLOAD}

where ``sum`` is a CRC-32 over the key and the canonical JSON of the
payload, so a torn, bit-rotted or interleaved line cannot pass for a
record.

* :meth:`AppendLog.append` writes one line under ``flock`` (where
  available) and flushes it at once, so a killed writer loses at most
  the line it was writing.  It first ends a torn, newline-less tail that
  such a writer left, so the new record never fuses with the fragment.
  Disk trouble is swallowed: the log is best-effort, never a reason for
  the caller to fail.
* :meth:`AppendLog.read` folds the complete lines past a caller-held
  byte offset.  It starts over from the top when the file has shrunk
  below that offset (the file was replaced: a new generation), leaves an
  unterminated tail pending (a live writer may be mid-line), and
  quarantines -- skips and counts -- every line that is not JSON,
  carries another format version, has a malformed envelope or fails its
  checksum.  Blank lines are not records and not corruption.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import NamedTuple

try:  # POSIX only; appends degrade to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Line format version; lines of any other version are quarantined.
FORMAT_VERSION = 2


def _checksum(key: str, payload: dict) -> int:
    """CRC-32 binding a line's key to its payload."""
    canonical = key + "\n" + json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _decode(raw: bytes) -> tuple[str, dict] | None:
    """The ``(key, payload)`` of one complete line, or ``None`` if damaged."""
    try:
        line = json.loads(raw.decode("utf-8"))
    except ValueError:  # bad JSON or bad UTF-8
        return None
    if not isinstance(line, dict) or line.get("v") != FORMAT_VERSION:
        return None
    key, payload = line.get("sig"), line.get("entry")
    if not isinstance(key, str) or not isinstance(payload, dict):
        return None
    if line.get("sum") != _checksum(key, payload):
        return None
    return key, payload


class LogRead(NamedTuple):
    """What one :meth:`AppendLog.read` found past the caller's offset."""

    #: ``(key, payload)`` per intact line, in file order.
    records: list[tuple[str, dict]]
    #: Bytes consumed; pass it to the next read.  Lower than the offset
    #: passed in when the file shrank and was read from the top.
    offset: int
    #: Quarantined lines.
    corrupt: int
    #: True when an unterminated tail waits past ``offset``.
    pending: bool


class AppendLog:
    """One append-only JSON-lines file of checksummed ``key -> payload``.

    Args:
        path: The file.  It and missing parent directories are created
            on first append.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def append(self, key: str, payload: dict) -> tuple[int, int] | None:
        """Append one record; the ``(start, end)`` byte span it took.

        ``None`` when the disk refused (``OSError`` is swallowed).
        """
        line = (
            json.dumps(
                {
                    "v": FORMAT_VERSION,
                    "sig": key,
                    "sum": _checksum(key, payload),
                    "entry": payload,
                },
                ensure_ascii=False,
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as fh:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    start = fh.seek(0, os.SEEK_END)
                    if start:
                        fh.seek(start - 1)
                        if fh.read(1) != b"\n":
                            # End a killed writer's torn tail first.
                            fh.write(b"\n")
                            start += 1
                    fh.write(line)
                    fh.flush()
                finally:
                    if fcntl is not None:
                        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        except OSError:
            return None
        return start, start + len(line)

    def read(self, offset: int = 0) -> LogRead:
        """Fold the complete lines past *offset* (see the module notes)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return LogRead([], offset, 0, False)
        if size < offset:
            offset = 0  # a replaced file: read it from the top
        if size == offset:
            return LogRead([], offset, 0, False)
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                blob = fh.read(size - offset)
        except OSError:
            return LogRead([], offset, 0, False)
        end = blob.rfind(b"\n") + 1
        records: list[tuple[str, dict]] = []
        corrupt = 0
        for raw in blob[:end].splitlines():
            if not raw.strip():
                continue
            record = _decode(raw)
            if record is None:
                corrupt += 1
            else:
                records.append(record)
        return LogRead(records, offset + end, corrupt, end < len(blob))
