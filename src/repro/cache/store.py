"""The extraction cache: signature -> semantic model + parse statistics.

:class:`ExtractionCache` is a bounded, thread-safe LRU map from a content
signature (:mod:`repro.cache.signature`) to a :class:`CacheEntry` -- the
plain-data residue of one extraction (serialized semantic model, parse
statistic counters, pipeline warnings).  Entries are stored and returned
as *data*, never as live objects: every hit deserializes a fresh
:class:`~repro.semantics.condition.SemanticModel`, so cached results can
never alias each other or be corrupted by a caller mutating its copy.

An optional on-disk backing makes the cache process-safe: entries are
appended to an :class:`~repro.cache.log.AppendLog` (one checksummed line
per entry, ``flock``-guarded where available) and re-read incrementally
whenever the file has grown -- pool workers sharing one path therefore
share hits within and across batches.  The file is append-only; LRU
eviction applies to the in-memory view only (the newest line for a
signature wins on reload), so a long-lived cache directory trades disk for
hit rate and can simply be deleted to invalidate.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.cache.log import AppendLog
from repro.parser.parser import ParseStats
from repro.semantics.condition import SemanticModel
from repro.semantics.serialize import model_from_dict, model_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.extractor import ExtractionResult

#: Default bound on in-memory entries.
DEFAULT_CAPACITY = 2048

#: The disk cache's file name inside a cache directory.
CACHE_FILENAME = "extraction-cache.jsonl"


@dataclass
class CacheEntry:
    """Plain-data snapshot of one extraction outcome.

    ``model`` is the :func:`~repro.semantics.serialize.model_to_dict` form;
    ``stats`` the :class:`~repro.parser.parser.ParseStats` fields as a
    dict (``None`` when the producer had no stats); ``warnings`` the
    pipeline warnings recorded while producing the entry.
    """

    model: dict
    stats: dict | None = None
    warnings: list[str] = field(default_factory=list)

    @classmethod
    def from_result(
        cls, result: "ExtractionResult", warnings: list[str] | None = None
    ) -> "CacheEntry":
        """Snapshot an extraction result (warnings default to none --
        warnings recorded upstream of the cached stages replay live)."""
        return cls(
            model=model_to_dict(result.model),
            stats=dataclasses.asdict(result.parse.stats),
            warnings=list(warnings or ()),
        )

    @classmethod
    def from_parts(
        cls,
        model: SemanticModel,
        stats: ParseStats | None,
        warnings: list[str] | None = None,
    ) -> "CacheEntry":
        return cls(
            model=model_to_dict(model),
            stats=dataclasses.asdict(stats) if stats is not None else None,
            warnings=list(warnings or ()),
        )

    def rebuild_model(self) -> SemanticModel:
        """A fresh, independent semantic model (never a shared object)."""
        return model_from_dict(self.model)

    def rebuild_stats(self) -> ParseStats | None:
        """A fresh ParseStats replaying the original counters.

        A stale disk cache degrades to slightly lossy counters, never to
        an exception (see :meth:`ParseStats.from_dict`).
        """
        if self.stats is None:
            return None
        return ParseStats.from_dict(self.stats)

    def to_payload(self) -> dict:
        return {
            "model": self.model,
            "stats": self.stats,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CacheEntry":
        """Rebuild an entry from its :meth:`to_payload` form.

        Raises :class:`ValueError` when a field has the wrong shape
        (``model`` not a dict, ``stats`` not a dict/None, ``warnings``
        not a list of strings).  Disk lines pass through here on reload,
        and a checksum only proves a line is what its writer wrote, so a
        malformed field must fail *here*, where the loader quarantines
        the line, rather than deep inside ``rebuild_stats()`` on the
        "never fails" hit path.
        """
        model = payload.get("model", {})
        if not isinstance(model, dict):
            raise ValueError(
                f"model must be a dict, got {type(model).__name__}"
            )
        stats = payload.get("stats")
        if stats is not None and not isinstance(stats, dict):
            raise ValueError(
                f"stats must be a dict or null, got {type(stats).__name__}"
            )
        warnings = payload.get("warnings", ())
        if not isinstance(warnings, (list, tuple)) or not all(
            isinstance(item, str) for item in warnings
        ):
            raise ValueError("warnings must be a list of strings")
        return cls(
            model=dict(model),
            stats=dict(stats) if stats is not None else None,
            warnings=list(warnings),
        )


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Disk lines quarantined on reload: undecodable JSON, unknown format
    #: version, malformed fields, or a failed checksum.  A nonzero count
    #: means the backing file took damage (torn writes survive SIGKILL,
    #: bit rot, concurrent non-cache writers) -- the damaged entries are
    #: simply re-extracted on their next miss.
    corrupt_records: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "corrupt_records": self.corrupt_records,
        }


class ExtractionCache:
    """Bounded LRU ``signature -> CacheEntry``, optionally disk-backed.

    Args:
        capacity: Maximum in-memory entries; the least recently used entry
            is evicted past it.  Must be >= 1.
        path: Optional JSON-lines file shared between processes.  The file
            (and missing parent directories) is created on first put;
            loads are incremental and tolerate concurrent appends and
            torn lines (see :mod:`repro.cache.log`).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        path: str | os.PathLike | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._log = AppendLog(self.path) if self.path is not None else None
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._stats = CacheStats()
        #: Bytes of the disk file already folded into ``_entries``.
        self._disk_offset = 0
        #: Signatures known to have a line in the current file generation.
        #: Consulted by :meth:`put` so an LRU-evicted signature that comes
        #: back is *not* appended again -- the file stays O(signatures),
        #: not O(puts), under long-lived churn.
        self._disk_signatures: set[str] = set()
        #: Fault-injection seam for the chaos harness: called before every
        #: disk append touches the file.  A hook that raises OSError
        #: exercises the disk-full path deterministically; the cache must
        #: degrade to memory-only.
        self.write_fault_hook: Callable[[], None] | None = None
        if self._log is not None:
            with self._lock:
                self._refresh_from_disk()

    # -- core operations ---------------------------------------------------------

    def get(self, signature: str) -> CacheEntry | None:
        """The entry for *signature*, refreshed from disk, or ``None``."""
        with self._lock:
            if self._log is not None:
                self._refresh_from_disk()
            entry = self._entries.get(signature)
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(signature)
            self._stats.hits += 1
            return entry

    def put(self, signature: str, entry: CacheEntry) -> None:
        """Insert (or refresh) *signature*; evict LRU past capacity."""
        with self._lock:
            self._remember(signature, entry)
            self._stats.puts += 1
            # Append at most once per signature per file generation: the
            # in-memory map forgets evicted signatures, but the append-only
            # file does not, so membership is tracked separately.
            if self._log is not None and signature not in self._disk_signatures:
                self._append_to_disk(signature, entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._entries

    def clear(self) -> None:
        """Drop the in-memory view (the disk file, if any, is kept).

        The disk offset resets to zero so the next lookup refolds the
        backing file -- a cleared disk-backed cache repopulates from disk
        instead of missing every signature it once held.
        """
        with self._lock:
            self._entries.clear()
            self._disk_offset = 0

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def _remember(self, signature: str, entry: CacheEntry) -> None:
        """Make *signature* the most recent entry; evict LRU past capacity."""
        self._entries[signature] = entry
        self._entries.move_to_end(signature)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    # -- disk backing -------------------------------------------------------------

    def _append_to_disk(self, signature: str, entry: CacheEntry) -> None:
        # Disk trouble, the fault hook's included, degrades the cache to
        # memory-only, silently -- caching is an optimization, never a
        # correctness dependency.
        assert self._log is not None
        try:
            if self.write_fault_hook is not None:
                self.write_fault_hook()
        except OSError:
            return
        span = self._log.append(signature, entry.to_payload())
        if span is None:
            return
        self._disk_signatures.add(signature)
        if span[0] == self._disk_offset:
            # Nothing unread precedes our own line: skip re-reading it.
            self._disk_offset = span[1]

    def _refresh_from_disk(self) -> None:
        """Fold the lines appended since the last look, by any process."""
        assert self._log is not None
        read = self._log.read(self._disk_offset)
        if read.offset < self._disk_offset:
            # The file shrank: a new generation -- forget which
            # signatures the old file held.
            self._disk_signatures.clear()
        self._disk_offset = read.offset
        self._stats.corrupt_records += read.corrupt
        for signature, payload in read.records:
            try:
                entry = CacheEntry.from_payload(payload)
            except (ValueError, TypeError):
                # An intact line with malformed fields: quarantine it.
                self._stats.corrupt_records += 1
                continue
            self._remember(signature, entry)
            self._disk_signatures.add(signature)
