"""Unit and integration tests for the degradation ladder."""

import pickle

import pytest

from repro.batch import BatchExtractor
from repro.cache import ExtractionCache
from repro.datasets.fixtures import QAM_HTML
from repro.datasets.repository import standard_datasets
from repro.extractor import FormExtractor
from repro.observability.metrics import MetricsRegistry
from repro.parser.parser import ParserConfig
from repro.resilience.guard import ResourceLimits
from repro.resilience.ladder import (
    LEVEL_CAPPED,
    LEVEL_FULL,
    LEVEL_HEURISTIC,
    LEVEL_MINIMAL,
    DegradationReport,
    ResilienceConfig,
    token_dump_model,
)
from repro.semantics.serialize import model_to_dict
from repro.tokens.tokenizer import FormTokenizer


def _deep_form(depth: int = 5_000) -> str:
    return (
        "<form>" + "<div>" * depth + 'Title <input name="title">'
        + "</div>" * depth + "</form>"
    )


class TestTokenDumpModel:
    def test_empty_tokens_empty_model(self):
        assert token_dump_model(None).conditions == []
        assert token_dump_model([]).conditions == []

    def test_one_condition_per_text_input(self):
        html = '<form><input name="a"><input name="b"></form>'
        from repro.html.parser import parse_html

        tokens = FormTokenizer(parse_html(html)).tokenize()
        model = token_dump_model(tokens)
        assert sorted(c.attribute for c in model.conditions) == ["a", "b"]
        assert all(c.operators == ("contains",) for c in model.conditions)

    def test_radio_groups_collapse(self):
        html = (
            '<form><input type=radio name=fmt value=hard>'
            '<input type=radio name=fmt value=soft></form>'
        )
        from repro.html.parser import parse_html

        tokens = FormTokenizer(parse_html(html)).tokenize()
        model = token_dump_model(tokens)
        assert len(model.conditions) == 1
        assert model.conditions[0].domain.values == ("hard", "soft")


class TestConfig:
    def test_picklable_for_pool_workers(self):
        config = ResilienceConfig(
            limits=ResourceLimits(deadline_seconds=1.5),
            heuristic_fallback=False,
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_report_describe(self):
        report = DegradationReport(
            LEVEL_CAPPED, "parse", "budget hit", resource="deadline"
        )
        assert report.describe() == "degraded to capped at parse: budget hit"


#: QAM plus the first page of each dataset (a dataset's first page is the
#: same at every scale).
_CLEAN_PAGES = {"QAM": QAM_HTML} | {
    name: next(iter(dataset)).html
    for name, dataset in standard_datasets(scale=0.02).items()
}


class TestLadderLevels:
    @pytest.mark.parametrize("html", _CLEAN_PAGES.values(), ids=_CLEAN_PAGES)
    def test_clean_form_stays_full_and_identical(self, html):
        plain = FormExtractor().extract_detailed(html)
        resilient = FormExtractor(resilience=True).extract_detailed(html)
        assert resilient.level == LEVEL_FULL
        assert resilient.degradation == []
        assert model_to_dict(resilient.model) == model_to_dict(plain.model)
        assert (
            resilient.parse.stats.counters() == plain.parse.stats.counters()
        )
        assert resilient.warnings == plain.warnings

    def test_deep_nesting_degrades_to_capped(self):
        result = FormExtractor(resilience=True).extract_resilient(_deep_form())
        assert result.level == LEVEL_CAPPED
        assert any(
            entry.resource == "depth" for entry in result.degradation
        )
        # The input control still surfaces despite the flattening.
        assert any(
            "title" in condition.fields
            for condition in result.model.conditions
        )

    def test_capped_results_are_not_cached(self):
        # A zero deadline caps the stages before the cache (which is then
        # never read); a parser budget caps the parse after a cache miss.
        cache = ExtractionCache()
        zero_deadline = ResilienceConfig(
            limits=ResourceLimits(deadline_seconds=0.0)
        )
        budgeted = FormExtractor(
            cache=cache, parser_config=ParserConfig(max_instances=60)
        )
        capped = [
            FormExtractor(cache=cache).extract_resilient(
                QAM_HTML, config=zero_deadline
            ),
            budgeted.extract_resilient(QAM_HTML),
        ]
        assert [result.level for result in capped] == [LEVEL_CAPPED] * 2
        assert capped[0].trace.span_named("cache") is None
        assert capped[1].trace.span_named("cache").counters == {"hit": 0}
        assert len(cache) == 0

    def test_zero_deadline_yields_capped_empty_model(self):
        # With no time at all even tokenization is capped to nothing;
        # there is nothing for lower rungs to chew on, so the ladder
        # reports capped with an empty (but structured) model.
        config = ResilienceConfig(
            limits=ResourceLimits(deadline_seconds=0.0)
        )
        result = FormExtractor().extract_resilient(QAM_HTML, config=config)
        assert result.level == LEVEL_CAPPED
        assert all(
            entry.resource == "deadline" for entry in result.degradation
        )

    def test_capped_empty_parse_steps_down_to_heuristic(self):
        # Tokens exist but the parse budget leaves zero conditions: an
        # empty "capped" model is a failure in disguise, so the ladder
        # steps down to the heuristic, which still finds the inputs.
        tokens = FormExtractor().extract_detailed(QAM_HTML).tokens
        config = ResilienceConfig(
            limits=ResourceLimits(deadline_seconds=0.0)
        )
        result = FormExtractor(resilience=config).extract_from_tokens(tokens)
        assert result.level == LEVEL_HEURISTIC
        assert result.model.conditions  # best-effort, never empty-handed
        levels = {entry.level for entry in result.degradation}
        assert LEVEL_HEURISTIC in levels

    def test_parser_crash_steps_down_to_heuristic(self, monkeypatch):
        extractor = FormExtractor(resilience=True)
        monkeypatch.setattr(
            extractor.parser, "parse",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        result = extractor.extract_resilient(QAM_HTML)
        assert result.level == LEVEL_HEURISTIC
        assert result.model.conditions
        assert any("boom" in entry.reason for entry in result.degradation)

    def test_layout_crash_steps_straight_to_minimal(self, monkeypatch):
        # Without tokens there is nothing for the heuristic to run on.
        monkeypatch.setattr(
            "repro.extractor.layout_document",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        result = FormExtractor(resilience=True).extract_resilient(QAM_HTML)
        assert result.level == LEVEL_MINIMAL
        assert result.model.conditions == []
        assert [(e.level, e.stage) for e in result.degradation] == [
            (LEVEL_MINIMAL, "layout")
        ]
        assert result.trace.span_named("layout").tags == {
            "error": "RuntimeError"
        }
        assert result.trace.outcome == "ok"

    def test_minimal_when_heuristic_disabled(self, monkeypatch):
        extractor = FormExtractor(
            resilience=ResilienceConfig(heuristic_fallback=False)
        )
        monkeypatch.setattr(
            extractor.parser, "parse",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        result = extractor.extract_resilient(QAM_HTML)
        assert result.level == LEVEL_MINIMAL
        assert result.model.conditions  # the token dump still lists inputs
        assert result.level == max(
            (entry.level for entry in result.degradation),
            key=[LEVEL_FULL, LEVEL_CAPPED, LEVEL_HEURISTIC,
                 LEVEL_MINIMAL].index,
        )


class TestObservability:
    def test_downgrades_are_warned_tagged_and_counted(self):
        registry = MetricsRegistry()
        extractor = FormExtractor(metrics=registry)
        result = extractor.extract_resilient(
            QAM_HTML,
            config=ResilienceConfig(
                limits=ResourceLimits(deadline_seconds=0.0)
            ),
        )
        for entry in result.degradation:
            assert entry.describe() in result.warnings
        assert result.trace.tags["degrade.level"] == result.level
        counters = registry.to_dict()["counters"]
        assert counters[f"degrade.{result.level}"] == 1

    def test_plain_path_tags_the_depth_cap(self):
        result = FormExtractor().extract_detailed(_deep_form())
        span = result.trace.span_named("html-parse")
        assert span.tags["depth_capped"] is True
        assert result.degradation == []

    def test_layout_truncation_tags_the_layout_span(self):
        result = FormExtractor().extract_resilient(
            QAM_HTML,
            config=ResilienceConfig(
                limits=ResourceLimits(deadline_seconds=0.0)
            ),
        )
        assert result.trace.span_named("layout").tags == {"truncated": True}
        assert "layout" in {entry.stage for entry in result.degradation}

    def test_degraded_pages_keep_their_parse_counters(self):
        result = FormExtractor(
            parser_config=ParserConfig(max_instances=30), resilience=True
        ).extract_detailed(QAM_HTML)
        assert result.level == LEVEL_HEURISTIC
        assert result.parse.trees == []
        construct = result.trace.span_named("parse.construct")
        assert result.parse.stats.instances_created == 30
        assert construct.counters == result.parse.stats.counters()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_sums_include_degraded_parse_work(self, jobs):
        with BatchExtractor(
            jobs=jobs, parser_config=ParserConfig(max_instances=30),
            resilience=True,
        ) as batch:
            report = batch.extract_html([QAM_HTML])
        assert report.records[0].trace["tags"]["degrade.level"] == LEVEL_HEURISTIC
        assert report.stats.instances_created == 30

    def test_full_level_leaves_no_degrade_signal(self):
        registry = MetricsRegistry()
        extractor = FormExtractor(metrics=registry, resilience=True)
        result = extractor.extract_detailed(QAM_HTML)
        assert result.level == LEVEL_FULL
        assert "degrade.level" not in result.trace.tags
        counters = registry.to_dict()["counters"]
        assert not any(name.startswith("degrade.") for name in counters)
