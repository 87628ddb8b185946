"""The extraction cache store: LRU behavior and disk sharing.

The damage cases the disk cache shares with the resume journal run
against both files in ``tests/cache/test_log.py``.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache import CacheEntry, ExtractionCache
from repro.cache.log import AppendLog
from repro.parser.parser import ParseStats
from repro.semantics.condition import SemanticModel
from repro.semantics.serialize import model_to_dict


def _entry(tag: str) -> CacheEntry:
    """A distinguishable entry (the tag rides in ``missing``)."""
    return CacheEntry.from_parts(
        SemanticModel(missing=[tag]),
        ParseStats(tokens=len(tag), combos_examined=7),
        warnings=[f"warn-{tag}"],
    )


class TestMemoryCache:
    def test_round_trip_returns_fresh_objects(self):
        cache = ExtractionCache()
        cache.put("tok:a", _entry("a"))
        first = cache.get("tok:a")
        second = cache.get("tok:a")
        assert first is not None and second is not None
        model_a, model_b = first.rebuild_model(), second.rebuild_model()
        assert model_a is not model_b
        assert model_to_dict(model_a) == model_to_dict(model_b)
        assert model_a.missing == ["a"]
        stats = first.rebuild_stats()
        assert stats.tokens == 1 and stats.combos_examined == 7
        assert first.warnings == ["warn-a"]

    def test_miss_returns_none_and_counts(self):
        cache = ExtractionCache()
        assert cache.get("tok:nope") is None
        cache.put("tok:a", _entry("a"))
        assert cache.get("tok:a") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_past_capacity(self):
        cache = ExtractionCache(capacity=2)
        for tag in ("a", "b", "c"):
            cache.put(f"tok:{tag}", _entry(tag))
        assert len(cache) == 2
        assert "tok:a" not in cache
        assert "tok:b" in cache and "tok:c" in cache
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = ExtractionCache(capacity=2)
        cache.put("tok:a", _entry("a"))
        cache.put("tok:b", _entry("b"))
        cache.get("tok:a")  # a is now the most recent
        cache.put("tok:c", _entry("c"))
        assert "tok:a" in cache
        assert "tok:b" not in cache

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ExtractionCache(capacity=0)

    def test_rebuild_stats_drops_unknown_fields(self):
        entry = CacheEntry(
            model=model_to_dict(SemanticModel()),
            stats={"tokens": 3, "from_the_future": 99},
        )
        stats = entry.rebuild_stats()
        assert stats.tokens == 3
        assert not hasattr(stats, "from_the_future")

    def test_entry_without_stats(self):
        entry = CacheEntry(model=model_to_dict(SemanticModel()))
        assert entry.rebuild_stats() is None


class TestDiskBacking:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = ExtractionCache(path=path)
        writer.put("tok:a", _entry("a"))
        reader = ExtractionCache(path=path)
        entry = reader.get("tok:a")
        assert entry is not None
        assert entry.rebuild_model().missing == ["a"]
        assert entry.warnings == ["warn-a"]

    def test_sees_appends_from_a_live_sibling(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ExtractionCache(path=path)
        second = ExtractionCache(path=path)
        assert second.get("tok:late") is None
        first.put("tok:late", _entry("late"))
        assert second.get("tok:late") is not None

    def test_appender_still_folds_a_siblings_earlier_appends(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ExtractionCache(path=path)
        second = ExtractionCache(path=path)
        second.put("tok:from-second", _entry("second"))
        first.put("tok:from-first", _entry("first"))
        entry = first.get("tok:from-second")
        assert entry is not None
        assert entry.rebuild_model().missing == ["second"]

    def test_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ExtractionCache(path=path).put("tok:a", _entry("a"))
        with open(path, "ab") as fh:  # a writer died mid-line
            fh.write(b'{"v":1,"sig":"tok:torn","entry"')
        reader = ExtractionCache(path=path)
        assert reader.get("tok:a") is not None
        assert reader.get("tok:torn") is None

    def test_skips_corrupt_and_wrong_version_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        bad_version = {
            "v": 999, "sig": "tok:vnext", "entry": _entry("v").to_payload()
        }
        path.write_text(
            "this is not json\n" + json.dumps(bad_version) + "\n",
            encoding="utf-8",
        )
        AppendLog(path).append("tok:good", _entry("good").to_payload())
        reader = ExtractionCache(path=path)
        assert reader.get("tok:good") is not None
        assert reader.get("tok:vnext") is None

    def test_truncated_file_reloads_from_scratch(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ExtractionCache(path=path)
        cache.put("tok:a", _entry("a"))
        cache.put("tok:b", _entry("b"))
        # Another process replaced the file with a shorter one.
        path.unlink()
        AppendLog(path).append("tok:new", _entry("new").to_payload())
        assert cache.get("tok:new") is not None

    def test_missing_parent_directory_is_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.jsonl"
        ExtractionCache(path=path).put("tok:a", _entry("a"))
        assert path.exists()
        assert ExtractionCache(path=path).get("tok:a") is not None


class TestClearWithDiskBacking:
    """Regression: ``clear()`` must reset the disk offset (issue 7)."""

    def test_clear_then_get_hits_from_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ExtractionCache(path=path)
        cache.put("tok:a", _entry("a"))
        cache.clear()
        assert len(cache) == 0
        entry = cache.get("tok:a")  # must refold the kept disk file
        assert entry is not None
        assert entry.rebuild_model().missing == ["a"]

    def test_clear_then_contains_after_get(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ExtractionCache(path=path)
        for tag in ("a", "b"):
            cache.put(f"tok:{tag}", _entry(tag))
        cache.clear()
        assert cache.get("tok:b") is not None
        assert "tok:a" in cache

    def test_clear_memory_only_cache_still_forgets(self):
        cache = ExtractionCache()
        cache.put("tok:a", _entry("a"))
        cache.clear()
        assert cache.get("tok:a") is None


class TestDiskAppendDedup:
    """Regression: re-``put`` of an evicted signature must not append a
    duplicate JSONL line (issue 7) -- a long-lived disk cache under LRU
    churn would otherwise grow without bound."""

    def test_churn_keeps_file_line_count_bounded(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ExtractionCache(capacity=2, path=path)
        signatures = ["tok:a", "tok:b", "tok:c"]
        for _ in range(10):  # every put past the first 2 evicts one
            for signature in signatures:
                cache.put(signature, _entry(signature[-1]))
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == len(signatures)

    def test_file_replacement_starts_a_new_generation(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ExtractionCache(capacity=1, path=path)
        cache.put("tok:a", _entry("a"))
        path.write_text("", encoding="utf-8")  # external invalidation
        cache.get("tok:a")  # notices the truncation, resets generation
        cache.put("tok:a", _entry("a"))
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1  # re-appended exactly once to the new file

    def test_evicted_entry_still_served_from_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ExtractionCache(capacity=2, path=path)
        for tag in ("a", "b", "c"):
            cache.put(f"tok:{tag}", _entry(tag))
        assert "tok:a" not in cache  # evicted from memory, kept on disk
        reader = ExtractionCache(capacity=8, path=path)
        assert reader.get("tok:a") is not None


class TestPayloadShapeValidation:
    """Regression: malformed fields on an intact, checksummed line must
    quarantine, not raise inside the cache path (issue 7)."""

    @pytest.mark.parametrize("stats", ["not-a-dict", [1, 2, 3], 7])
    def test_line_with_malformed_stats_is_quarantined(
        self, tmp_path, stats
    ):
        path = tmp_path / "cache.jsonl"
        payload = _entry("bad").to_payload()
        payload["stats"] = stats
        AppendLog(path).append("tok:bad", payload)
        reader = ExtractionCache(path=path)
        assert reader.get("tok:bad") is None
        assert reader.stats.corrupt_records == 1

    @pytest.mark.parametrize(
        "field_name,value",
        [("model", "oops"), ("model", [1]), ("warnings", "oops"),
         ("warnings", [{"w": 1}])],
    )
    def test_line_with_malformed_field_is_quarantined(
        self, tmp_path, field_name, value
    ):
        path = tmp_path / "cache.jsonl"
        payload = _entry("bad").to_payload()
        payload[field_name] = value
        AppendLog(path).append("tok:bad", payload)
        reader = ExtractionCache(path=path)
        assert reader.get("tok:bad") is None
        assert reader.stats.corrupt_records == 1

    def test_malformed_line_never_voids_its_neighbours(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        bad = _entry("bad").to_payload()
        bad["stats"] = "broken"
        AppendLog(path).append("tok:bad", bad)
        AppendLog(path).append("tok:good", _entry("g").to_payload())
        reader = ExtractionCache(path=path)
        good = reader.get("tok:good")
        assert good is not None
        assert good.rebuild_stats() is not None
        assert reader.stats.corrupt_records == 1

    def test_from_payload_raises_on_bad_shapes(self):
        with pytest.raises(ValueError):
            CacheEntry.from_payload({"model": "oops"})
        with pytest.raises(ValueError):
            CacheEntry.from_payload({"model": {}, "stats": [1]})
        with pytest.raises(ValueError):
            CacheEntry.from_payload({"model": {}, "warnings": 3})


def _concurrent_put(args):
    """Worker: write one entry through its own cache instance."""
    path, tag = args
    ExtractionCache(path=path).put(f"tok:{tag}", _entry(tag))
    return tag


class TestConcurrentWorkers:
    def test_disk_round_trip_under_concurrent_writers(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        tags = [f"w{i}" for i in range(16)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            done = list(pool.map(_concurrent_put, [(path, t) for t in tags]))
        assert sorted(done) == sorted(tags)
        reader = ExtractionCache(path=path)
        for tag in tags:
            entry = reader.get(f"tok:{tag}")
            assert entry is not None, tag
            assert entry.rebuild_model().missing == [tag]
        # flock-guarded appends: every line intact, one per entry.
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == len(tags)
        for raw in lines:
            json.loads(raw)
