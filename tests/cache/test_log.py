"""The append-only log under the disk cache and the resume journal.

``TestAppendLog`` checks the log's own contract: byte spans, offsets,
pending tails and file generations.  ``TestDamageTolerance`` and
``TestChecksums`` run every damage case the two files share against
each of them, through the cache's and the journal's public API.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.journal import BatchJournal
from repro.cache import CacheEntry, ExtractionCache
from repro.cache.log import AppendLog


def _payload(name: str) -> dict:
    """A record both files accept: a cache entry and a journaled outcome."""
    return {"model": {"name": name}, "error": None}


class _CacheFile:
    """The disk cache's view of a file."""

    #: A fresh cache leaves a torn tail pending: a live writer may be
    #: mid-line.
    torn_tail_corrupt = 0

    def __init__(self, path):
        self.cache = ExtractionCache(path=path)

    def put(self, key: str, name: str) -> None:
        self.cache.put(key, CacheEntry.from_payload(_payload(name)))

    def get(self, key: str) -> str | None:
        entry = self.cache.get(key)
        return None if entry is None else entry.model["name"]

    @property
    def corrupt(self) -> int:
        return self.cache.stats.as_dict()["corrupt_records"]


class _JournalFile:
    """The resume journal's view of a file."""

    #: A journal loads once, so a torn tail is a line a killed run tore.
    torn_tail_corrupt = 1

    def __init__(self, path):
        self.journal = BatchJournal(path, resume=True)

    def put(self, key: str, name: str) -> None:
        self.journal.append(key, _payload(name))

    def get(self, key: str) -> str | None:
        payload = self.journal.completed_payload(key)
        return None if payload is None else payload["model"]["name"]

    @property
    def corrupt(self) -> int:
        return self.journal.corrupt_lines


@pytest.fixture(params=[_CacheFile, _JournalFile], ids=["cache", "journal"])
def disk_file(request):
    """Opens a path as the disk cache or as the resume journal."""
    return request.param


class TestAppendLog:
    def test_read_folds_the_lines_past_an_offset(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        first = log.append("a", {"n": 1})
        second = log.append("b", {"n": 2})
        assert first[0] == 0 and first[1] == second[0]
        read = log.read()
        assert read.records == [("a", {"n": 1}), ("b", {"n": 2})]
        assert read.offset == second[1] == log.path.stat().st_size
        assert (read.corrupt, read.pending) == (0, False)
        assert log.read(first[1]).records == [("b", {"n": 2})]
        assert log.read(second[1]) == ([], second[1], 0, False)

    def test_unterminated_tail_stays_pending(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        _, end = log.append("a", {"n": 1})
        with open(log.path, "ab") as fh:
            fh.write(b'{"v":2,"sig":"b"')  # a writer mid-line
        read = log.read()
        assert read.records == [("a", {"n": 1})]
        assert (read.offset, read.corrupt, read.pending) == (end, 0, True)
        assert log.read(end) == ([], end, 0, True)

    def test_append_after_a_torn_tail_reports_its_own_span(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append("a", {"n": 1})
        with open(log.path, "ab") as fh:
            fh.write(b'{"v":2,"sig"')
        size = log.path.stat().st_size
        start, end = log.append("b", {"n": 2})
        assert start == size + 1  # after the newline that ended the tail
        assert log.read(start) == ([("b", {"n": 2})], end, 0, False)

    def test_shrunk_file_is_read_from_the_top(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append("a", {"n": 1})
        _, offset = log.append("b", {"n": 2})
        log.path.unlink()
        log.append("c", {"n": 3})
        read = log.read(offset)
        assert read.records == [("c", {"n": 3})]
        assert read.offset < offset

    def test_missing_file_reads_nothing(self, tmp_path):
        log = AppendLog(tmp_path / "absent.jsonl")
        assert log.read(5) == ([], 5, 0, False)

    def test_disk_trouble_returns_no_span(self, tmp_path):
        assert AppendLog(tmp_path).append("a", {}) is None  # a directory


class TestDamageTolerance:
    def test_torn_trailing_line_is_quarantined(self, disk_file, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = disk_file(path)
        writer.put("0:a", "kept")
        writer.put("1:b", "torn")
        path.write_bytes(path.read_bytes()[:-10])  # SIGKILL mid-write
        reader = disk_file(path)
        assert reader.corrupt == disk_file.torn_tail_corrupt
        assert reader.get("0:a") == "kept"
        assert reader.get("1:b") is None

    def test_append_heals_a_torn_tail(self, disk_file, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = disk_file(path)
        writer.put("0:a", "kept")
        writer.put("1:b", "torn")
        path.write_bytes(path.read_bytes()[:-10])
        # A successor appends more records after the torn tail; the new
        # record must not fuse with the fragment.
        disk_file(path).put("2:c", "after")
        reader = disk_file(path)
        assert reader.corrupt == 1
        assert reader.get("0:a") == "kept"
        assert reader.get("2:c") == "after"

    def test_foreign_lines_are_quarantined(self, disk_file, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            "not json at all\n"
            + json.dumps({"v": 99, "sig": "0:a", "entry": {}}) + "\n"
            + json.dumps({"v": 2, "sig": 7, "entry": {}}) + "\n"
            + "\n"
        )
        disk_file(path).put("0:a", "good")
        reader = disk_file(path)
        assert reader.corrupt == 3  # blank lines are not corruption
        assert reader.get("0:a") == "good"

    def test_append_after_a_replaced_file_lands_intact(
        self, disk_file, tmp_path
    ):
        path = tmp_path / "log.jsonl"
        writer = disk_file(path)
        writer.put("0:a", "old")
        writer.put("1:b", "old")
        path.unlink()
        disk_file(path).put("2:c", "new")  # another process starts over
        writer.put("3:d", "late")
        reader = disk_file(path)
        assert reader.corrupt == 0
        assert reader.get("0:a") is None
        assert reader.get("2:c") == "new"
        assert reader.get("3:d") == "late"

    def test_disk_trouble_is_swallowed(self, disk_file, tmp_path):
        # Persistence is best-effort: an unwritable file must not fail
        # the caller, and the in-memory view still advances.
        handle = disk_file(tmp_path)  # a directory: open() fails
        handle.put("0:a", "memory-only")
        assert handle.get("0:a") == "memory-only"


class TestChecksums:
    def test_lines_carry_a_checksum(self, disk_file, tmp_path):
        path = tmp_path / "log.jsonl"
        disk_file(path).put("0:a", "a")
        line = json.loads(path.read_text())
        assert line["v"] == 2
        assert isinstance(line["sum"], int)

    def test_tampered_line_is_quarantined(self, disk_file, tmp_path):
        path = tmp_path / "log.jsonl"
        disk_file(path).put("0:a", "original")
        line = json.loads(path.read_text())
        line["entry"]["model"]["name"] = "tampered"
        path.write_text(json.dumps(line) + "\n")
        reader = disk_file(path)
        assert reader.corrupt == 1
        assert reader.get("0:a") is None

    def test_unchecksummed_line_is_quarantined(self, disk_file, tmp_path):
        # Version-1 lines carried no checksum; they no longer load.
        path = tmp_path / "log.jsonl"
        line = {"v": 1, "sig": "0:old", "entry": _payload("old")}
        path.write_text(json.dumps(line) + "\n")
        reader = disk_file(path)
        assert reader.corrupt == 1
        assert reader.get("0:old") is None
