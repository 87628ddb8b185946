"""Cached extraction must be indistinguishable from fresh extraction."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import ExtractionCache
from repro.datasets.domains import DOMAINS
from repro.datasets.fixtures import QAM_HTML
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.extractor import FormExtractor
from repro.semantics.serialize import model_to_dict


#: Bare controls with no ``<form>`` element: extraction tokenizes the
#: whole page and warns (``form_fallback``).
NO_FORM_HTML = (
    "<html><body><b>Title</b> <input name=title size=20> "
    "<b>Author</b> <input name=author size=20> "
    "<input type=submit value=Search></body></html>"
)


def _fixture_sources():
    """A spread of dataset fixtures: the paper's QAM page, one generated
    source per domain and a page without a ``<form>``."""
    profile = GeneratorProfile(min_conditions=2, max_conditions=5)
    sources = [QAM_HTML]
    for i, name in enumerate(sorted(DOMAINS)):
        sources.append(
            SourceGenerator(DOMAINS[name], profile).generate(71_000 + i).html
        )
    sources.append(NO_FORM_HTML)
    return sources


_FIXTURES = _fixture_sources()


class TestCachedEquivalence:
    @pytest.mark.parametrize("index", range(len(_FIXTURES)))
    def test_cached_result_deep_equals_fresh(self, index):
        html = _FIXTURES[index]
        fresh = FormExtractor().extract_detailed(html)
        cached_extractor = FormExtractor(cache=ExtractionCache())
        miss = cached_extractor.extract_detailed(html)
        hit = cached_extractor.extract_detailed(html)

        assert not miss.trace.tags.get("cache_hit")
        assert hit.trace.tags.get("cache_hit") is True
        for result in (miss, hit):
            assert model_to_dict(result.model) == model_to_dict(fresh.model)
        # Replayed stats carry the original counters, so aggregate sums
        # (benchmarks, batch reports) cannot tell a hit from a recompute.
        # Timings are replayed from the producing run, not this one, so
        # they match the miss exactly and the fresh run only structurally.
        assert dataclasses.asdict(hit.parse.stats) == dataclasses.asdict(
            miss.parse.stats
        )
        assert hit.parse.stats.counters() == fresh.parse.stats.counters()
        assert hit.warnings == miss.warnings == fresh.warnings
        # The stages before the cache run on a hit too, and count the
        # same work; the replayed stats are the miss's parse counters.
        for stage in ("html-parse", "layout", "tokenize"):
            assert (
                hit.trace.span_named(stage).counters
                == miss.trace.span_named(stage).counters
            ), stage
        assert (
            hit.parse.stats.counters()
            == miss.trace.span_named("parse.construct").counters
        )

    def test_no_form_fixture_takes_the_fallback(self):
        result = FormExtractor().extract_detailed(NO_FORM_HTML)
        assert result.trace.tags.get("form_fallback") is True
        assert result.warnings

    def test_hit_never_aliases_the_stored_result(self):
        extractor = FormExtractor(cache=ExtractionCache())
        extractor.extract(QAM_HTML)
        first = extractor.extract(QAM_HTML)
        second = extractor.extract(QAM_HTML)
        assert first is not second
        assert first.conditions[0] is not second.conditions[0]
        first.conditions.clear()  # mutating a hit must not poison the cache
        assert model_to_dict(second) == model_to_dict(
            extractor.extract(QAM_HTML)
        )

    def test_cache_span_records_hit_flag(self):
        extractor = FormExtractor(cache=ExtractionCache())
        miss = extractor.extract_detailed(QAM_HTML)
        hit = extractor.extract_detailed(QAM_HTML)
        miss_span = [s for s in miss.trace.spans if s.name == "cache"]
        hit_span = [s for s in hit.trace.spans if s.name == "cache"]
        assert miss_span and miss_span[0].counters["hit"] == 0
        assert hit_span and hit_span[0].counters["hit"] == 1
        # A hit skips the parse and merge stages entirely.
        assert not any(s.name.startswith("parse.") for s in hit.trace.spans)

    def test_cache_off_by_default(self):
        extractor = FormExtractor()
        assert extractor.cache is None
        result = extractor.extract_detailed(QAM_HTML)
        assert "cache_hit" not in result.trace.tags
        assert not any(s.name == "cache" for s in result.trace.spans)

    def test_cache_counts_hits_and_misses(self):
        cache = ExtractionCache()
        extractor = FormExtractor(cache=cache)
        for _ in range(3):
            extractor.extract(QAM_HTML)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_translation_equivalent_forms_share_an_entry(self, token_factory):
        # Two renderings of the same form at different page offsets are
        # one cache entry: the second is a hit.
        def form(dx, dy):
            return [
                token_factory("text", 10 + dx, 20 + dy, text="Author"),
                token_factory("textbox", 80 + dx, 20 + dy, name="author"),
            ]

        cache = ExtractionCache()
        extractor = FormExtractor(cache=cache)
        first = extractor.extract_from_tokens(form(0, 0))
        second = extractor.extract_from_tokens(form(300, 1_000))
        assert cache.stats.hits == 1
        assert second.trace.tags.get("cache_hit") is True
        assert model_to_dict(second.model) == model_to_dict(first.model)
