"""Batch-level caching and dedupe: pooled prefill, replicas, reporting."""

from __future__ import annotations

import pytest

import repro.batch.extractor as batch_module
import repro.extractor as extractor_module
from repro.batch import BatchExtractor, usable_cores
from repro.bench import generate_token_sets
from repro.cache import ExtractionCache, token_signature
from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.extractor import FormExtractor
from repro.semantics.serialize import model_to_dict


def _distinct_sources(count=2):
    profile = GeneratorProfile(min_conditions=2, max_conditions=4)
    names = sorted(DOMAINS)
    return [
        SourceGenerator(DOMAINS[names[i % len(names)]], profile)
        .generate(seed=41_000 + i)
        .html
        for i in range(count)
    ]


_A, _B = _distinct_sources()
#: Duplicated batch: indices 2, 3, 5 are followers of 0; index 4 of 1.
_DUPLICATED = [_A, _B, _A, _A, _B, _A]


def _model_dicts(report):
    return [
        model_to_dict(m) if m is not None else None for m in report.models
    ]


class TestPooledDedupe:
    def test_duplicates_collapse_onto_leaders(self):
        baseline = BatchExtractor(jobs=1).extract_html(_DUPLICATED)
        with BatchExtractor(jobs=2) as batch:
            report = batch.extract_html(_DUPLICATED)
        assert not report.errors
        assert _model_dicts(report) == _model_dicts(baseline)
        assert report.dedupe_collapsed == 4
        assert [r.deduped for r in report.records] == [
            False, False, True, True, True, True
        ]
        # Replayed stats keep aggregate sums identical to a recompute.
        assert (
            report.stats.combos_examined == baseline.stats.combos_examined
        )
        assert report.stats.tokens == baseline.stats.tokens

    def test_replicas_are_fresh_objects(self):
        with BatchExtractor(jobs=2) as batch:
            report = batch.extract_html([_A, _A])
        leader, follower = report.records
        assert follower.deduped and not leader.deduped
        assert leader.model is not follower.model
        assert model_to_dict(leader.model) == model_to_dict(follower.model)
        assert follower.elapsed_seconds == 0.0

    def test_token_batches_dedupe_too(self):
        tokens = FormExtractor().extract_detailed(_A).tokens
        with BatchExtractor(jobs=2) as batch:
            report = batch.extract_tokens([tokens, tokens, tokens])
        assert not report.errors
        assert report.dedupe_collapsed == 2

    def test_unsignable_inputs_dispatch_individually(self):
        tokens = FormExtractor().extract_detailed(_A).tokens
        with BatchExtractor(jobs=2) as batch:
            report = batch.extract_tokens([tokens, [object()], tokens])
        assert [r.ok for r in report.records] == [True, False, True]
        assert report.dedupe_collapsed == 1  # the two token copies


class TestPooledCache:
    def test_second_pass_is_served_from_cache(self):
        with BatchExtractor(jobs=2, cache=True) as batch:
            cold = batch.extract_html(_DUPLICATED)
            warm = batch.extract_html(_DUPLICATED)
        assert cold.cache_hits == 0
        assert cold.cache_misses == 2  # one lookup per distinct leader
        assert warm.cache_hits == 2
        assert warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0
        assert all(r.cached for r in warm.records)
        assert _model_dicts(warm) == _model_dicts(cold)
        assert warm.stats.combos_examined == cold.stats.combos_examined

    def test_cache_shared_across_extractors_via_instance(self):
        cache = ExtractionCache()
        with BatchExtractor(jobs=2, cache=cache) as first:
            first.extract_html([_A])
        with BatchExtractor(jobs=2, cache=cache) as second:
            report = second.extract_html([_A])
        assert report.cache_hits == 1

    def test_disk_cache_shared_across_instances(self, tmp_path):
        with BatchExtractor(jobs=2, cache_dir=tmp_path) as first:
            cold = first.extract_html([_A, _B])
        assert (tmp_path / "extraction-cache.jsonl").exists()
        with BatchExtractor(jobs=2, cache_dir=tmp_path) as second:
            warm = second.extract_html([_A, _B])
        assert cold.cache_hits == 0 and warm.cache_hits == 2
        assert _model_dicts(warm) == _model_dicts(cold)

    def test_cache_off_by_default_but_dedupe_still_on(self):
        with BatchExtractor(jobs=2) as batch:
            report = batch.extract_html([_A, _A])
        assert batch.cache is None
        assert report.cache_hits == 0 and report.cache_misses == 0
        assert report.cache_hit_rate == 0.0
        assert report.dedupe_collapsed == 1

    @pytest.mark.parametrize("resilience", [False, True],
                             ids=["plain", "ladder"])
    def test_serial_path_counts_token_level_hits(self, resilience):
        # A new HTML signature with _A's token signature: the parent-side
        # lookup misses and the extractor's token-level cache answers.
        report = BatchExtractor(
            jobs=1, cache=True, resilience=resilience
        ).extract_html([_A, _B, "<!-- same form -->" + _A])
        assert report.cache_misses == 2
        assert report.cache_hits == 1
        assert report.records[2].cached

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pooled"])
    def test_each_token_form_is_signed_and_stored_once(
        self, jobs, monkeypatch
    ):
        """In this process: the parent signs and looks up every input,
        and the job carries the signature; with ``jobs=1`` the extractor
        that stores a result shares the parent's cache."""
        forms = generate_token_sets(10)
        signed = []
        stored = []
        real_put = ExtractionCache.put

        def counting_signature(tokens):
            signed.append(1)
            return token_signature(tokens)

        def counting_put(cache, signature, entry):
            stored.append(signature)
            real_put(cache, signature, entry)

        for module in (batch_module, extractor_module):
            monkeypatch.setattr(module, "token_signature", counting_signature)
        monkeypatch.setattr(ExtractionCache, "put", counting_put)
        with BatchExtractor(jobs=jobs, cache=True, oversubscribe=True) as batch:
            report = batch.extract_tokens(forms)
        assert not report.errors
        distinct = {token_signature(tokens) for tokens in forms}
        assert len(distinct) == len(forms)
        assert len(signed) == len(forms)
        assert sorted(stored) == sorted(distinct)
        assert report.cache_misses == len(forms)

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pooled"])
    def test_degraded_records_are_not_cached(self, jobs):
        deep = (
            "<form>" + "<div>" * 5_000 + 'Title <input name="title">'
            + "</div>" * 5_000 + "</form>"
        )
        with BatchExtractor(jobs=jobs, cache=True, resilience=True) as batch:
            batch.extract_html([deep])
            again = batch.extract_html([deep])
        assert (again.cache_hits, again.cache_misses) == (0, 1)
        assert again.records[0].trace["tags"]["degrade.level"] == "capped"


class TestReportSurface:
    def test_summary_carries_cache_keys(self):
        with BatchExtractor(jobs=2, cache=True) as batch:
            batch.extract_html(_DUPLICATED)
            summary = batch.extract_html(_DUPLICATED).summary()
        assert summary["cache.hits"] == 2
        assert summary["cache.misses"] == 0
        assert summary["cache.hit_rate"] == 1.0
        assert summary["dedupe.collapsed"] == 4

    def test_describe_mentions_cache_and_dedupe(self):
        with BatchExtractor(jobs=2, cache=True) as batch:
            batch.extract_html([_A])
            text = batch.extract_html([_A, _A]).describe()
        assert "cache hit(s)" in text
        assert "deduped" in text


class TestWorkerSizing:
    def test_auto_jobs_resolves_to_usable_cores(self):
        batch = BatchExtractor(jobs="auto")
        assert batch.jobs == usable_cores()

    def test_rejects_unknown_jobs_string(self):
        with pytest.raises(ValueError):
            BatchExtractor(jobs="many")

    def test_effective_workers_clamped_to_usable_cores(self):
        batch = BatchExtractor(jobs=512)
        assert batch._workers == min(512, usable_cores())
        assert BatchExtractor(jobs=512, oversubscribe=True)._workers == 512

    def test_auto_chunksize_waves(self):
        auto = BatchExtractor._auto_chunksize
        assert auto(0, 4) == 1
        assert auto(1, 4) == 1
        assert auto(120, 4) == 8  # four waves per worker
        assert auto(10_000, 4) == 64  # capped so results still stream
