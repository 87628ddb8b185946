"""End-to-end tests for the form extractor on the paper's fixtures."""

import pytest

from repro.datasets.fixtures import (
    QAA_HTML,
    QAM_FRAGMENT_HTML,
    QAM_HTML,
    qaa_ground_truth,
    qam_fragment_ground_truth,
    qam_ground_truth,
)
from repro.evaluation.metrics import per_source_metrics
from repro.extractor import (
    FormExtractor,
    FormNotFoundError,
    extract_capabilities,
)
from repro.parser.parser import ParserConfig
from repro.semantics.condition import Domain


@pytest.fixture(scope="module")
def extractor():
    return FormExtractor()


class TestQam:
    """Figure 3(a): the amazon.com books form."""

    def test_perfect_extraction(self, extractor):
        model = extractor.extract(QAM_HTML)
        metrics = per_source_metrics(list(model.conditions), qam_ground_truth())
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    def test_author_condition_shape(self, extractor):
        model = extractor.extract(QAM_HTML)
        author = next(c for c in model if c.attribute == "Author")
        assert author.domain == Domain("text")
        assert author.operators == (
            "first name/initials and last name",
            "start(s) of last name",
            "exact name",
        )
        assert "author" in author.fields

    def test_subject_enumeration(self, extractor):
        model = extractor.extract(QAM_HTML)
        subject = next(c for c in model if c.attribute == "Subject")
        assert subject.domain.kind == "enum"
        assert "Fiction" in subject.domain.values

    def test_single_complete_parse(self, extractor):
        detail = extractor.extract_detailed(QAM_HTML)
        assert detail.parse.is_complete


class TestQaa:
    """Figure 3(b): the aa.com airfare form."""

    def test_perfect_extraction(self, extractor):
        model = extractor.extract(QAA_HTML)
        metrics = per_source_metrics(list(model.conditions), qaa_ground_truth())
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    def test_trip_type_is_bare_enum(self, extractor):
        model = extractor.extract(QAA_HTML)
        trip = next(c for c in model if "Round trip" in c.domain.values)
        assert trip.attribute == ""

    def test_dates_are_composite(self, extractor):
        model = extractor.extract(QAA_HTML)
        dates = [c for c in model if c.domain.kind == "datetime"]
        assert {c.attribute for c in dates} == {
            "Departure date", "Return date",
        }
        departure = next(c for c in dates if c.attribute == "Departure date")
        assert set(departure.fields) == {"dep_m", "dep_d"}

    def test_checkbox_flag(self, extractor):
        model = extractor.extract(QAA_HTML)
        flag = next(
            c for c in model if "Nonstop flights only" in c.domain.values
        )
        assert flag.operators == ("in",)


class TestFragment:
    def test_fragment_extraction(self, extractor):
        model = extractor.extract(QAM_FRAGMENT_HTML)
        metrics = per_source_metrics(
            list(model.conditions), qam_fragment_ground_truth()
        )
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0


class TestApiSurface:
    def test_one_shot_helper(self):
        model = extract_capabilities(QAM_HTML)
        assert len(model) == 5

    def test_out_of_range_form_index_raises(self, extractor):
        with pytest.raises(FormNotFoundError) as excinfo:
            extractor.extract(QAM_HTML, form_index=5)
        assert excinfo.value.form_index == 5
        assert excinfo.value.form_count == 1
        assert "5" in str(excinfo.value) and "1 form" in str(excinfo.value)

    def test_negative_form_index_raises(self, extractor):
        with pytest.raises(FormNotFoundError):
            extractor.extract(QAM_HTML, form_index=-1)

    def test_form_index_on_formless_page_raises(self, extractor):
        with pytest.raises(FormNotFoundError) as excinfo:
            extractor.extract("<html><body>nothing</body></html>", form_index=2)
        assert excinfo.value.form_count == 0

    def test_no_form_page(self, extractor):
        model = extractor.extract("<html><body>No form here</body></html>")
        assert list(model.conditions) == []

    def test_no_form_fallback_is_recorded(self, extractor):
        detail = extractor.extract_detailed(
            "<html><body>Query: <input name=q></body></html>"
        )
        assert any("no <form> element" in warning for warning in detail.warnings)
        assert detail.trace.tags.get("form_fallback") is True

    def test_empty_page(self, extractor):
        model = extractor.extract("")
        assert list(model.conditions) == []

    def test_extract_detailed_carries_trace(self, extractor):
        detail = extractor.extract_detailed(QAM_HTML)
        assert detail.tokens
        assert detail.parse.stats.instances_created > 0
        assert detail.report.model is detail.model

    def test_trace_spans_cover_the_pipeline(self, extractor):
        detail = extractor.extract_detailed(QAM_HTML)
        assert [span.name for span in detail.trace.spans] == [
            "html-parse", "layout", "tokenize", "parse.construct",
            "parse.maximize", "merge",
        ]
        construct = detail.trace.span_named("parse.construct")
        assert construct.counters == detail.parse.stats.counters()
        merge = detail.trace.span_named("merge")
        assert merge.counters["conditions"] == len(detail.model.conditions)
        assert detail.trace.outcome == "ok"
        assert not detail.warnings
        stats = detail.parse.stats
        assert stats.elapsed_seconds == pytest.approx(
            stats.construction_seconds + stats.maximization_seconds, abs=1e-3
        )

    def test_extractions_feed_metrics_registry(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        extractor = FormExtractor(metrics=registry)
        extractor.extract(QAM_HTML)
        extractor.extract(QAM_HTML)
        assert registry.counter("extract.ok") == 2
        histogram = registry.histogram("span.parse.construct.seconds")
        assert histogram is not None and histogram.count == 2
        assert registry.counter(
            "span.parse.construct.instances_created"
        ) == 2 * extractor.extract_detailed(
            QAM_HTML
        ).parse.stats.instances_created

    def test_deterministic_output(self, extractor):
        first = extractor.extract(QAM_HTML)
        second = extractor.extract(QAM_HTML)
        assert list(first.conditions) == list(second.conditions)

    def test_custom_grammar_accepted(self, example_grammar):
        custom = FormExtractor(grammar=example_grammar)
        model = custom.extract(QAM_FRAGMENT_HTML)
        # Grammar G has no condition constructors, so no conditions come
        # out -- but extraction must run cleanly.
        assert model.conditions == []


class TestParseAndMergeSpans:
    """The plain and the degradation-ladder token entries share one
    parse-and-merge block, so both record the same spans and tags."""

    @pytest.fixture(scope="class")
    def tokens(self):
        return FormExtractor().extract_detailed(QAM_HTML).tokens

    @pytest.mark.parametrize("resilience", [False, True],
                             ids=["plain", "ladder"])
    def test_spans_carry_parse_and_merge_counters(self, tokens, resilience):
        detail = FormExtractor(resilience=resilience).extract_from_tokens(
            tokens
        )
        trace = detail.trace
        assert [span.name for span in trace.spans] == [
            "parse.construct", "parse.maximize", "merge",
        ]
        construct = trace.span_named("parse.construct")
        assert construct.counters == detail.parse.stats.counters()
        assert construct.tags == {}
        assert trace.span_named("parse.maximize").counters == {
            "trees": len(detail.parse.trees)
        }
        merge = trace.span_named("merge")
        assert merge.counters == detail.report.counters()

    @pytest.mark.parametrize("resilience", [False, True],
                             ids=["plain", "ladder"])
    def test_truncation_tags_the_construct_span(self, tokens, resilience):
        extractor = FormExtractor(
            parser_config=ParserConfig(max_instances=40),
            resilience=resilience,
        )
        construct = extractor.extract_from_tokens(tokens).trace.span_named(
            "parse.construct"
        )
        assert construct.tags == {"truncated": True}
        assert construct.counters["truncated"] == 1


class TestRobustness:
    @pytest.mark.parametrize("html", [
        "<form></form>",
        "<form><input></form>",
        "<form>" + "<input name=q>" * 20 + "</form>",
        "<form><table><tr></tr></table></form>",
        "<form>text only, no controls</form>",
    ])
    def test_never_raises(self, extractor, html):
        extractor.extract(html)


class TestWarmup:
    """`warmup()` pays first-call costs without observable side effects
    (the serve tier calls it in every worker initializer)."""

    def test_warmup_is_silent(self):
        from repro.cache import ExtractionCache
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = ExtractionCache(capacity=8)
        extractor = FormExtractor(metrics=registry, cache=cache)
        extractor.warmup()
        assert registry.to_dict()["counters"] == {}
        assert len(cache) == 0

    def test_warmup_is_idempotent_and_extraction_unchanged(self):
        warmed = FormExtractor()
        warmed.warmup()
        warmed.warmup()
        cold = FormExtractor()
        assert list(warmed.extract(QAM_HTML).conditions) == list(
            cold.extract(QAM_HTML).conditions
        )

    def test_service_warm_reaches_the_serial_extractor(self):
        from repro.server.config import ServerConfig
        from repro.server.service import ExtractionService

        service = ExtractionService(ServerConfig(jobs=1, cache=False))
        calls = []
        local = service._batch._local_extractor()
        local.warmup = lambda: calls.append(True)  # type: ignore[method-assign]
        assert service.warm() == 1
        assert calls == [True]
