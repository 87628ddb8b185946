"""The form extractor: the end-to-end pipeline of paper Figure 2.

Given an HTML query form, the extractor tokenizes the rendered page, parses
the tokens against the 2P grammar with the best-effort parser, and merges
the resulting partial parse trees into the form's query capabilities::

    from repro import FormExtractor

    extractor = FormExtractor()
    model = extractor.extract(html)
    for condition in model:
        print(condition)      # [Author; {contains}; text] ...

Every extraction additionally records a :class:`~repro.observability.Trace`
of per-stage spans (``html-parse``, ``tokenize``, ``parse.construct``,
``parse.maximize``, ``merge``) with durations and counters, available on
:attr:`ExtractionResult.trace` and folded into a
:class:`~repro.observability.MetricsRegistry` -- the extractor is
best-effort by design, so degradations (no ``<form>`` element, budget
truncation) are *surfaced* as warnings and tags, never silently absorbed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.cache import CacheEntry, ExtractionCache, token_signature
from repro.grammar.cache import cached_standard_grammar
from repro.grammar.grammar import TwoPGrammar
from repro.html.dom import Document, Element
from repro.html.parser import parse_html
from repro.layout.box import BBox
from repro.merger.merger import Merger, MergeReport
from repro.observability.logs import get_logger, log_event
from repro.observability.metrics import MetricsRegistry, get_global_registry
from repro.observability.trace import Trace
from repro.parser.parser import (
    BestEffortParser,
    ParseResult,
    ParserConfig,
    ParseStats,
)
from repro.resilience.guard import ResourceGuard
from repro.resilience.ladder import (
    LEVEL_CAPPED,
    LEVEL_FULL,
    LEVEL_HEURISTIC,
    LEVEL_MINIMAL,
    DegradationReport,
    ResilienceConfig,
    token_dump_model,
)
from repro.semantics.condition import SemanticModel
from repro.tokens.tokenizer import FormTokenizer
from repro.tokens.model import Token

_logger = get_logger("repro.extractor")


class FormNotFoundError(LookupError):
    """Raised when ``form_index`` does not name a form of the document.

    Carries the requested index and the number of forms actually present,
    so batch clients can report the miss precisely instead of silently
    extracting the wrong form.
    """

    def __init__(self, form_index: int, form_count: int):
        self.form_index = form_index
        self.form_count = form_count
        super().__init__(
            f"form index {form_index} out of range: "
            f"document has {form_count} form(s)"
        )


@dataclass
class ExtractionResult:
    """Full trace of one extraction, for clients that need more than the
    semantic model (error handling, visualization, debugging)."""

    model: SemanticModel
    parse: ParseResult
    report: MergeReport
    tokens: list[Token]
    trace: Trace = field(default_factory=Trace)
    #: Downgrades the resilient ladder recorded (empty on the full level
    #: and for non-resilient extractions).
    degradation: list[DegradationReport] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        """Non-fatal degradations recorded along the pipeline."""
        return self.trace.warnings

    @property
    def level(self) -> str:
        """The ladder level this extraction landed on."""
        worst = LEVEL_FULL
        order = {LEVEL_FULL: 0, LEVEL_CAPPED: 1, LEVEL_HEURISTIC: 2,
                 LEVEL_MINIMAL: 3}
        for report in self.degradation:
            if order.get(report.level, 0) > order[worst]:
                worst = report.level
        return worst


class FormExtractor:
    """HTML query form → semantic model (query capabilities).

    Args:
        grammar: The 2P grammar (default: the cached standard grammar).
        parser_config: Parser tunables (budgets, evaluation mode).
        metrics: Registry receiving one trace per extraction.  ``None``
            (default) records into the process-wide global registry; pass
            a dedicated registry to isolate measurements.
        cache: Optional :class:`~repro.cache.ExtractionCache`.  When set,
            ``extract_from_tokens`` looks the token signature up before
            parsing and replays the stored model/stats on a hit (the
            parse and merge stages are skipped entirely); misses are
            stored after extraction.  Cached replays rebuild fresh
            objects -- a hit can never alias a previous result.
        validate_grammar: When ``True``, run the static analyzer on the
            grammar at construction time and raise
            :class:`~repro.analysis.GrammarDiagnosticsError` on any
            error-severity diagnostic (see ``repro lint``).  Off by
            default; the default path never imports the analyzer.
    """

    def __init__(
        self,
        grammar: TwoPGrammar | None = None,
        parser_config: ParserConfig | None = None,
        metrics: MetricsRegistry | None = None,
        cache: ExtractionCache | None = None,
        resilience: ResilienceConfig | bool | None = None,
        validate_grammar: bool = False,
    ):
        # The cached grammar is shared across extractors (and with it the
        # cached schedule), so per-form extractor construction stays cheap.
        self.grammar = grammar if grammar is not None else cached_standard_grammar()
        self.parser = BestEffortParser(
            self.grammar, parser_config, validate_grammar=validate_grammar
        )
        self.merger = Merger()
        self.metrics = metrics if metrics is not None else get_global_registry()
        self.cache = cache
        if resilience is True:
            resilience = ResilienceConfig()
        elif resilience is False:
            resilience = None
        self.resilience: ResilienceConfig | None = resilience

    def warmup(self) -> None:
        """Pay every first-call cost now instead of on the first request.

        Parses and merges one tiny synthetic form through the extractor's
        own parser: the cached grammar and schedule, the geometry table's
        numpy paths, the parser core's first-call allocations, and the
        merger are all exercised once.  The result is discarded and
        neither the extraction cache nor the metrics registry is
        touched, so a warmed extractor is observably identical to a cold
        one -- except that the first real request no longer pays
        import/alloc latency (``repro serve`` calls this in every
        worker's initializer).
        """
        tokens: list[Token] = []
        # Four label+textbox rows plus a submit row: big enough that the
        # instance pools cross MIN_INDEXED_POOL, so the geometry-table
        # paths (and their numpy allocations) run too.
        for row in range(4):
            top = 24.0 * row
            tokens.append(Token(
                id=len(tokens), terminal="text",
                bbox=BBox(0.0, 60.0, top, top + 19.0),
                attrs={"sval": f"Field {row}"},
            ))
            tokens.append(Token(
                id=len(tokens), terminal="textbox",
                bbox=BBox(70.0, 190.0, top, top + 19.0),
                attrs={"name": f"f{row}"},
            ))
        tokens.append(Token(
            id=len(tokens), terminal="submitbutton",
            bbox=BBox(0.0, 60.0, 96.0, 115.0), attrs={"label": "Go"},
        ))
        self.merger.merge(self.parser.parse(tokens))

    # -- main entry points --------------------------------------------------------

    def extract(self, html: str, form_index: int = 0) -> SemanticModel:
        """Extract the semantic model of the *form_index*-th form in *html*."""
        return self.extract_detailed(html, form_index).model

    def extract_detailed(
        self,
        html: str,
        form_index: int = 0,
        guard: ResourceGuard | None = None,
    ) -> ExtractionResult:
        """Extract, returning the full pipeline trace.

        A raise-mode *guard* (the batch engine's deadline fallback) is
        threaded through every stage; with :attr:`resilience` configured
        and no explicit guard, extraction routes through the degradation
        ladder instead (see :meth:`extract_resilient`).
        """
        if self.resilience is not None and guard is None:
            return self.extract_resilient(html, form_index)
        trace = Trace()
        with trace.span("html-parse") as span:
            document = parse_html(html, guard=guard)
            span.count("chars", len(html))
        return self.extract_from_document(
            document, form_index, trace=trace, guard=guard
        )

    def extract_from_document(
        self,
        document: Document,
        form_index: int = 0,
        trace: Trace | None = None,
        guard: ResourceGuard | None = None,
    ) -> ExtractionResult:
        """Extract from an already-parsed document.

        Raises:
            FormNotFoundError: *form_index* is out of range for the
                document's forms.  A document with no ``<form>`` element at
                all still tokenizes the whole page for ``form_index=0``
                (some sites write bare controls), but the fallback is
                recorded in the result's trace and warnings.
        """
        trace = trace if trace is not None else Trace()
        with trace.span("tokenize") as span:
            tokenizer = FormTokenizer(document, guard=guard)
            forms = document.forms
            form = self._pick_form(forms, form_index)
            if form is None:
                trace.tags["form_fallback"] = True
                trace.warn(
                    "document has no <form> element; tokenized the whole page"
                )
                log_event(
                    _logger, logging.WARNING, "extract.no_form_fallback",
                    form_index=form_index,
                )
            tokens = tokenizer.tokenize(form)
            span.count("tokens", len(tokens))
            span.count("forms_on_page", len(forms))
        return self.extract_from_tokens(tokens, trace=trace, guard=guard)

    def extract_from_tokens(
        self,
        tokens: list[Token],
        trace: Trace | None = None,
        guard: ResourceGuard | None = None,
    ) -> ExtractionResult:
        """Parse and merge an existing token set.

        With a :attr:`cache` configured, a token-signature hit replays the
        stored outcome (recorded as a ``cache`` span tagged ``cache_hit``)
        instead of parsing; a miss parses normally and stores the result.
        With :attr:`resilience` configured and no explicit guard, the
        parse/merge stages run under the degradation ladder instead.
        """
        if self.resilience is not None and guard is None:
            cfg = self.resilience
            ladder_guard = ResourceGuard(limits=cfg.limits, mode="degrade").start()
            return self._ladder_from_tokens(
                tokens, trace if trace is not None else Trace(), ladder_guard, cfg
            )
        trace = trace if trace is not None else Trace()
        signature: str | None = None
        if self.cache is not None:
            with trace.span("cache") as span:
                signature = token_signature(tokens)
                entry = self.cache.get(signature)
                span.count("hit", 1 if entry is not None else 0)
            if entry is not None:
                return self._replay_cached(entry, tokens, trace)
        parse, report = self._parse_and_merge(tokens, trace, guard)
        result = ExtractionResult(
            model=report.model,
            parse=parse,
            report=report,
            tokens=tokens,
            trace=trace,
        )
        if self.cache is not None and signature is not None:
            self.cache.put(signature, CacheEntry.from_result(result))
        self.metrics.record_trace(trace)
        log_event(
            _logger, logging.DEBUG, "extract.complete",
            tokens=len(tokens),
            conditions=len(report.model.conditions),
            conflicts=len(report.conflict_tokens),
            missing=len(report.missing_tokens),
            truncated=parse.stats.truncated,
            seconds=round(trace.total_seconds, 6),
        )
        return result

    def _parse_and_merge(
        self,
        tokens: list[Token],
        trace: Trace,
        guard: ResourceGuard | None,
    ) -> tuple[ParseResult, MergeReport]:
        """Parse *tokens* and merge the trees, recording the
        ``parse.construct``, ``parse.maximize`` and ``merge`` spans."""
        parse = self.parser.parse(tokens, guard=guard)
        stats = parse.stats
        construct = trace.add_span(
            "parse.construct", stats.construction_seconds, counters=stats.counters()
        )
        if stats.truncated:
            construct.tags["truncated"] = True
        trace.add_span(
            "parse.maximize",
            stats.maximization_seconds,
            counters={"trees": len(parse.trees)},
        )
        with trace.span("merge") as span:
            report = self.merger.merge(parse, guard=guard)
            span.counters.update(report.counters())
        return parse, report

    def _replay_cached(
        self, entry: CacheEntry, tokens: list[Token], trace: Trace
    ) -> ExtractionResult:
        """Rebuild an :class:`ExtractionResult` from a cache entry.

        The model and stats are fresh deserialized objects; the parse
        carries no trees or instances (they were never stored) but replays
        the original counters so batch/benchmark stat sums are identical
        to a full recompute.  Warnings stored with the entry are re-issued
        on this trace.
        """
        trace.tags["cache_hit"] = True
        for warning in entry.warnings:
            trace.warn(warning)
        model = entry.rebuild_model()
        stats = entry.rebuild_stats()
        parse = ParseResult(
            trees=[],
            tokens=tokens,
            instances=[],
            stats=stats if stats is not None else ParseStats(tokens=len(tokens)),
        )
        result = ExtractionResult(
            model=model,
            parse=parse,
            report=MergeReport(model=model),
            tokens=tokens,
            trace=trace,
        )
        self.metrics.record_trace(trace)
        log_event(
            _logger, logging.DEBUG, "extract.cache_hit",
            tokens=len(tokens),
            conditions=len(model.conditions),
        )
        return result

    # -- the degradation ladder ---------------------------------------------------

    def extract_resilient(
        self,
        html: str,
        form_index: int = 0,
        config: ResilienceConfig | None = None,
    ) -> ExtractionResult:
        """Extract under the degradation ladder: always return a model.

        Runs the pipeline under a degrade-mode
        :class:`~repro.resilience.guard.ResourceGuard` and steps down the
        ladder (``full`` → ``capped`` → ``heuristic`` → ``minimal``) on
        budget breaches or stage failures instead of raising.  Every
        downgrade is a :class:`~repro.resilience.ladder.DegradationReport`
        on :attr:`ExtractionResult.degradation`, mirrored into the trace
        warnings/tags and counted as a ``degrade.<level>`` metric.

        The only exception that escapes is :class:`FormNotFoundError`
        (a caller error, not an input pathology).  Degraded results are
        never cached.
        """
        cfg = config if config is not None else self.resilience
        if cfg is None:
            cfg = ResilienceConfig()
        guard = ResourceGuard(limits=cfg.limits, mode="degrade").start()
        trace = Trace()
        tokens: list[Token] = []
        structural: list[DegradationReport] = []
        try:
            with trace.span("html-parse") as span:
                document = parse_html(html, guard=guard)
                span.count("chars", len(html))
                if document.truncated:
                    span.tags["truncated"] = True
                if document.depth_capped:
                    span.tags["depth_capped"] = True
                    structural.append(
                        DegradationReport(
                            level=LEVEL_CAPPED,
                            stage="html-parse",
                            reason="tree depth cap flattened deeply "
                            "nested markup",
                            resource="depth",
                        )
                    )
        except Exception as exc:
            trace.outcome = "ok"
            return self._finish_ladder(
                token_dump_model(tokens), None, None, tokens, trace, guard,
                [self._stage_failure(LEVEL_MINIMAL, "html-parse", exc)],
            )
        try:
            with trace.span("tokenize") as span:
                tokenizer = FormTokenizer(document, guard=guard)
                forms = document.forms
                form = self._pick_form(forms, form_index)
                if form is None:
                    trace.tags["form_fallback"] = True
                    trace.warn(
                        "document has no <form> element; "
                        "tokenized the whole page"
                    )
                tokens = tokenizer.tokenize(form)
                span.count("tokens", len(tokens))
                span.count("forms_on_page", len(forms))
        except FormNotFoundError:
            raise
        except Exception as exc:
            trace.outcome = "ok"
            return self._finish_ladder(
                token_dump_model(tokens), None, None, tokens, trace, guard,
                [self._stage_failure(LEVEL_MINIMAL, "tokenize", exc)],
            )
        return self._ladder_from_tokens(
            tokens, trace, guard, cfg, prior=structural
        )

    def _ladder_from_tokens(
        self,
        tokens: list[Token],
        trace: Trace,
        guard: ResourceGuard,
        cfg: ResilienceConfig,
        prior: list[DegradationReport] | None = None,
    ) -> ExtractionResult:
        """Parse/merge rungs of the ladder (shared with token-level entry)."""
        try:
            parse, report = self._parse_and_merge(tokens, trace, guard)
        except Exception as exc:
            trace.outcome = "ok"
            return self._ladder_fallback(
                tokens, trace, guard, cfg,
                f"stage raised {type(exc).__name__}: {exc}",
                prior=prior,
            )
        reports = list(prior or [])
        reports += [
            DegradationReport(
                level=LEVEL_CAPPED,
                stage=event.stage,
                reason=event.describe(),
                resource=event.resource,
            )
            for event in guard.events
        ]
        if parse.stats.truncated and not reports:
            reports.append(
                DegradationReport(
                    level=LEVEL_CAPPED,
                    stage="parse",
                    reason="parser budget truncated the fix-point; "
                    "best partial parses kept",
                )
            )
        if reports and not report.model.conditions and tokens:
            # A cap that left nothing behind is a failure in disguise --
            # step down rather than hand back an empty "capped" model.
            return self._ladder_fallback(
                tokens, trace, guard, cfg,
                "budget-capped parse produced no conditions",
                prior=reports,
            )
        return self._finish_ladder(
            report.model, parse, report, tokens, trace, guard, reports
        )

    def _ladder_fallback(
        self,
        tokens: list[Token],
        trace: Trace,
        guard: ResourceGuard,
        cfg: ResilienceConfig,
        reason: str,
        prior: list[DegradationReport] | None = None,
    ) -> ExtractionResult:
        """Parse/merge gave nothing usable: step to heuristic, then minimal."""
        reports = list(prior or [])
        if cfg.heuristic_fallback:
            try:
                from repro.baseline.heuristic import HeuristicExtractor

                model = HeuristicExtractor().extract_from_tokens(tokens)
                reports.append(
                    DegradationReport(LEVEL_HEURISTIC, "parse", reason)
                )
                return self._finish_ladder(
                    model, None, None, tokens, trace, guard, reports
                )
            except Exception as heuristic_exc:
                reports.append(
                    DegradationReport(LEVEL_HEURISTIC, "parse", reason)
                )
                reports.append(
                    self._stage_failure(
                        LEVEL_MINIMAL, "heuristic", heuristic_exc
                    )
                )
                return self._finish_ladder(
                    token_dump_model(tokens), None, None, tokens, trace,
                    guard, reports,
                )
        reports.append(DegradationReport(LEVEL_MINIMAL, "parse", reason))
        return self._finish_ladder(
            token_dump_model(tokens), None, None, tokens, trace, guard,
            reports,
        )

    @staticmethod
    def _stage_failure(
        level: str, stage: str, exc: Exception
    ) -> DegradationReport:
        return DegradationReport(
            level=level,
            stage=stage,
            reason=f"stage raised {type(exc).__name__}: {exc}",
        )

    def _finish_ladder(
        self,
        model: SemanticModel,
        parse: ParseResult | None,
        report: MergeReport | None,
        tokens: list[Token],
        trace: Trace,
        guard: ResourceGuard,
        reports: list[DegradationReport],
    ) -> ExtractionResult:
        """Assemble the result, surfacing every downgrade."""
        if parse is None:
            parse = ParseResult(
                trees=[],
                tokens=tokens,
                instances=[],
                stats=ParseStats(tokens=len(tokens)),
            )
        if report is None:
            report = MergeReport(model=model)
        result = ExtractionResult(
            model=model,
            parse=parse,
            report=report,
            tokens=tokens,
            trace=trace,
            degradation=list(reports),
        )
        for entry in reports:
            trace.warn(entry.describe())
        level = result.level
        if level != LEVEL_FULL:
            trace.tags["degrade.level"] = level
            self.metrics.inc(f"degrade.{level}")
            log_event(
                _logger, logging.WARNING, "extract.degraded",
                degrade_level=level,
                reports=len(reports),
                tokens=len(tokens),
                conditions=len(model.conditions),
            )
        self.metrics.record_trace(trace)
        return result

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _pick_form(forms: list[Element], form_index: int) -> Element | None:
        """``forms[form_index]``, from the page's forms in document order."""
        if not forms:
            if form_index == 0:
                return None  # whole-page fallback, recorded by the caller
            raise FormNotFoundError(form_index, 0)
        if not 0 <= form_index < len(forms):
            raise FormNotFoundError(form_index, len(forms))
        return forms[form_index]


def extract_capabilities(html: str) -> SemanticModel:
    """One-shot extraction with the default grammar."""
    return FormExtractor().extract(html)
