"""Resumable batch journal: per-form outcomes on disk, crash-tolerant.

A :class:`BatchJournal` is an append-only JSON-lines checkpoint of a
batch run.  As each form's :class:`~repro.batch.extractor.BatchRecord`
is finalized, one line lands in the journal; after a crash (or SIGKILL)
a rerun with ``resume=True`` loads the journal and skips every form
whose outcome is already on disk, re-extracting only the rest.

The file is an :class:`~repro.cache.log.AppendLog`, the same file as the
disk-backed extraction cache: ``flock``-guarded, immediately flushed,
CRC-checked lines; an append ends a torn tail first; damaged lines are
quarantined, never fatal.  On top of it the journal keeps its own rules:

* the newest line for a key wins, so re-running a failed form simply
  appends its new outcome;
* a record with an ``error`` documents the failure but is not
  resume-skippable;
* without ``resume`` the journal is write-only;
* a tail still unterminated at load is a line a killed writer tore, and
  counts as one of :attr:`BatchJournal.corrupt_lines`.

Journals written before the shared line format (version 1) resume
nothing: their lines load as corrupt.

Keys bind an input's batch *position* to its *content signature*
(``"<index>:<signature>"``), so resuming against an edited input list
re-extracts anything that moved or changed instead of serving stale
results.  The journal stores plain payload dicts; record
(de)serialization lives with :class:`~repro.batch.extractor.BatchRecord`
in the batch engine.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.cache.log import AppendLog


def job_key(index: int, signature: str | None) -> str:
    """The journal key of one batch input.

    Combines input order and content signature so a resume only skips a
    form when both its position and its content are unchanged.  Inputs
    the hasher cannot sign (custom jobs) fall back to position-only keys
    -- resuming those assumes the input list is unchanged.
    """
    return f"{index}:{signature if signature is not None else 'unsigned'}"


class BatchJournal:
    """Append-only, torn-line-tolerant journal of per-form outcomes.

    Args:
        path: The JSON-lines journal file.  Parent directories are
            created on first append.
        resume: Load existing journal lines eagerly so
            :meth:`completed_payload` can serve prior outcomes.  Without
            it the journal is write-only (a fresh run that still
            checkpoints).
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        self._log = AppendLog(self.path)
        #: Lines quarantined on load, a torn tail included.
        self.corrupt_lines = 0
        self._loaded: dict[str, dict] = {}
        if resume:
            read = self._log.read()
            self.corrupt_lines = read.corrupt + int(read.pending)
            self._loaded = dict(read.records)  # newest line per key wins

    def __len__(self) -> int:
        return len(self._loaded)

    def completed_payload(self, key: str) -> dict | None:
        """The stored payload for *key* when its outcome was successful.

        Only records journaled without an ``error`` are resume-skippable;
        a failed form's journal line documents the failure but the form
        is re-attempted on resume.
        """
        payload = self._loaded.get(key)
        if payload is None or payload.get("error") is not None:
            return None
        return payload

    def append(self, key: str, payload: dict) -> None:
        """Journal one finalized outcome (best-effort: disk trouble is
        swallowed -- checkpointing must never fail the batch itself)."""
        self._log.append(key, payload)
        self._loaded[key] = payload
