"""Unit tests for the resumable batch journal.

The damage cases it shares with the disk cache run against both files in
``tests/cache/test_log.py``.
"""

from repro.batch import BatchRecord
from repro.batch.journal import BatchJournal, job_key
from repro.parser.parser import ParseStats
from repro.semantics.condition import SemanticModel


def _payload(name: str, error: str | None = None) -> dict:
    return {"model": {"name": name}, "error": error}


class TestJobKey:
    def test_binds_position_and_signature(self):
        assert job_key(3, "abc123") == "3:abc123"

    def test_unsigned_inputs_fall_back_to_position(self):
        assert job_key(0, None) == "0:unsigned"


class TestRoundTrip:
    def test_append_then_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = BatchJournal(path)
        writer.append("0:a", _payload("first"))
        writer.append("1:b", _payload("second"))
        reader = BatchJournal(path, resume=True)
        assert len(reader) == 2
        assert reader.corrupt_lines == 0
        assert reader.completed_payload("0:a") == _payload("first")
        assert reader.completed_payload("2:c") is None

    def test_write_only_mode_does_not_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        BatchJournal(path).append("0:a", _payload("first"))
        fresh = BatchJournal(path)  # resume=False: checkpoint-only
        assert len(fresh) == 0
        assert fresh.completed_payload("0:a") is None

    def test_missing_file_resumes_empty(self, tmp_path):
        journal = BatchJournal(tmp_path / "absent.jsonl", resume=True)
        assert len(journal) == 0
        assert journal.corrupt_lines == 0

    def test_newest_line_per_key_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = BatchJournal(path)
        writer.append("0:a", _payload("stale"))
        writer.append("0:a", _payload("fresh"))
        reader = BatchJournal(path, resume=True)
        assert reader.completed_payload("0:a") == _payload("fresh")

    def test_error_records_are_not_resume_skippable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        BatchJournal(path).append("0:a", _payload("broken", error="Boom"))
        reader = BatchJournal(path, resume=True)
        assert len(reader) == 1  # documented ...
        assert reader.completed_payload("0:a") is None  # ... but re-run


class TestOldCheckpoints:
    def test_retired_stats_stamps_still_resume(self, tmp_path):
        """A checkpoint whose stats still carry the retired ``kernel`` and
        ``compiled`` stamps resumes with every counter intact."""
        stats = ParseStats(tokens=7, instances_created=5, truncated=True)
        payload = BatchRecord(
            index=0, model=SemanticModel(), stats=stats, elapsed_seconds=0.5
        ).to_payload()
        payload["stats"].update({"kernel": "vector", "compiled": False})
        path = tmp_path / "journal.jsonl"
        BatchJournal(path).append("0:a", payload)
        journaled = BatchJournal(path, resume=True).completed_payload("0:a")
        record = BatchRecord.from_payload(journaled, 0)
        assert record.ok, record.error
        assert record.resumed
        assert record.stats == stats
        assert record.elapsed_seconds == 0.5
