"""The form extractor: the end-to-end pipeline of paper Figure 2.

Given an HTML query form, the extractor lays out and tokenizes the
rendered page, parses the tokens against the 2P grammar with the
best-effort parser, and merges the resulting partial parse trees into the
form's query capabilities::

    from repro import FormExtractor

    extractor = FormExtractor()
    model = extractor.extract(html)
    for condition in model:
        print(condition)      # [Author; {contains}; text] ...

Every entry point runs one stage sequence, entered at HTML or at tokens:
``html-parse`` → ``layout`` → ``tokenize`` → ``cache`` (only with a
cache) → ``parse.construct``/``parse.maximize`` → ``merge``.  Each stage
that runs records a span with its duration, counters and tags on a
:class:`~repro.observability.Trace`, available on
:attr:`ExtractionResult.trace` and folded into a
:class:`~repro.observability.MetricsRegistry`.  Without the degradation
ladder a stage's exception propagates, a breached per-form ``deadline``
included; under it (:meth:`FormExtractor.extract_resilient`) the same
stages share one degrade-mode guard and the ladder grades what they
returned.  The extractor is best-effort by design, so degradations (no
``<form>`` element, budget truncation) are *surfaced* as warnings and
tags, never silently absorbed.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

from repro.cache import CacheEntry, ExtractionCache, token_signature
from repro.grammar.cache import cached_standard_grammar
from repro.grammar.grammar import TwoPGrammar
from repro.html.dom import Element
from repro.html.parser import parse_html
from repro.layout.box import BBox
from repro.layout.engine import layout_document
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
from repro.resilience.guard import ResourceGuard, ResourceLimits
from repro.resilience.ladder import (
    LEVEL_CAPPED,
    LEVEL_FULL,
    LEVEL_HEURISTIC,
    LEVEL_MINIMAL,
    LEVELS,
    DegradationReport,
    ResilienceConfig,
    token_dump_model,
)
from repro.semantics.condition import SemanticModel
from repro.tokens.tokenizer import FormTokenizer
from repro.tokens.model import Token

_logger = get_logger("repro.extractor")

#: Without the ladder a guard carries only the caller's deadline.
_DEADLINE_ONLY = ResourceLimits(
    max_input_bytes=None, max_nodes=None, max_tokens=None
)


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
        """The ladder level this extraction landed on: the worst reported."""
        return max(
            (report.level for report in self.degradation),
            key=LEVELS.index,
            default=LEVEL_FULL,
        )


class FormExtractor:
    """HTML query form → semantic model (query capabilities).

    Args:
        grammar: The 2P grammar (default: the cached standard grammar).
        parser_config: Parser tunables (budgets, evaluation mode).
        metrics: Registry receiving one trace per extraction.  ``None``
            (default) records into the process-wide global registry; pass
            a dedicated registry to isolate measurements.
        cache: Optional :class:`~repro.cache.ExtractionCache`.  When set,
            the ``cache`` stage looks the token signature up before
            parsing and replays the stored model/stats on a hit (the
            parse and merge stages are skipped entirely); ``full``-level
            misses are stored after extraction.  Cached replays rebuild
            fresh objects -- a hit can never alias a previous result.
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
        sorted window, the parser core's first-call allocations, and the
        merger are all exercised once.  The result is discarded and
        neither the extraction cache nor the metrics registry is
        touched, so a warmed extractor is observably identical to a cold
        one -- except that the first real request no longer pays
        import/alloc latency (``repro serve`` calls this in every
        worker's initializer).
        """
        tokens: list[Token] = []
        # Four label+textbox rows plus a submit row: big enough that the
        # instance pools cross MIN_INDEXED_POOL, so the geometry table's
        # sorted window runs too.
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
        deadline: float | None = None,
    ) -> ExtractionResult:
        """Extract, returning the full pipeline trace.

        With :attr:`resilience` configured, extraction runs under the
        degradation ladder (see :meth:`extract_resilient`).  A *deadline*
        in seconds bounds the stages cooperatively: under the ladder a
        breach caps the result, without it a breach raises
        :class:`~repro.resilience.guard.BudgetExceeded`.

        Raises:
            FormNotFoundError: *form_index* is out of range for the
                document's forms.  A document with no ``<form>`` element at
                all still tokenizes the whole page for ``form_index=0``
                (some sites write bare controls), but the fallback is
                recorded in the result's trace and warnings.
        """
        return self._run(
            Trace(), self.resilience, deadline,
            html=html, form_index=form_index,
        )

    def extract_from_tokens(
        self,
        tokens: list[Token],
        trace: Trace | None = None,
        deadline: float | None = None,
    ) -> ExtractionResult:
        """Run the stages from ``cache`` on over an existing token set.

        With a :attr:`cache` configured, a token-signature hit replays the
        stored outcome (the trace is tagged ``cache_hit``) instead of
        parsing; a miss parses normally and stores the result.  With
        :attr:`resilience` configured, the stages run under the
        degradation ladder; *deadline* bounds them as in
        :meth:`extract_detailed`.
        """
        trace = trace if trace is not None else Trace()
        return self._run(trace, self.resilience, deadline, tokens=tokens)

    def _extract_signed_tokens(
        self,
        tokens: list[Token],
        signature: str | None,
        deadline: float | None = None,
    ) -> ExtractionResult:
        """:meth:`extract_from_tokens` for the batch parent, which already
        signed the tokens with :func:`~repro.cache.token_signature`, so
        they are not hashed again.  *signature* is trusted as the cache
        key; ``None`` hashes the tokens as usual."""
        return self._run(
            Trace(), self.resilience, deadline, tokens=tokens,
            signature=signature,
        )

    def extract_resilient(
        self,
        html: str,
        form_index: int = 0,
        config: ResilienceConfig | None = None,
    ) -> ExtractionResult:
        """Extract under the degradation ladder: always return a model.

        Runs the stages under a degrade-mode
        :class:`~repro.resilience.guard.ResourceGuard` and steps down the
        ladder (``full`` → ``capped`` → ``heuristic`` → ``minimal``) on
        budget breaches or stage failures instead of raising.  Every
        downgrade is a :class:`~repro.resilience.ladder.DegradationReport`
        on :attr:`ExtractionResult.degradation`, mirrored into the trace
        warnings/tags and counted as a ``degrade.<level>`` metric.

        The only exception that escapes is :class:`FormNotFoundError`
        (a caller error, not an input pathology).  The cache is read only
        while no stage has degraded, and only ``full``-level results are
        stored.
        """
        ladder = config or self.resilience or ResilienceConfig()
        return self._run(Trace(), ladder, html=html, form_index=form_index)

    # -- the stages and the ladder -------------------------------------------------

    def _run(
        self,
        trace: Trace,
        ladder: ResilienceConfig | None,
        deadline: float | None = None,
        html: str = "",
        form_index: int = 0,
        tokens: list[Token] | None = None,
        signature: str | None = None,
    ) -> ExtractionResult:
        """Run the stages from HTML, or from ``cache`` on given *tokens*
        (and their *signature*, when the caller has it).

        The one place a per-form guard is built.  With a *ladder*, all
        stages share one degrade-mode guard on its limits, *deadline*
        replacing theirs, and every failure or breach becomes a
        :class:`DegradationReport`.  Without one a stage's exception
        propagates, and a *deadline* arms a raise-mode guard.
        """
        guard: ResourceGuard | None = None
        if ladder is not None or deadline is not None:
            limits = ladder.limits if ladder is not None else _DEADLINE_ONLY
            if deadline is not None:
                limits = dataclasses.replace(limits, deadline_seconds=deadline)
            mode = "degrade" if ladder is not None else "raise"
            guard = ResourceGuard(limits=limits, mode=mode).start()
        reports: list[DegradationReport] = []
        parse: ParseResult | None = None
        report: MergeReport | None = None
        stats: ParseStats | None = None
        failure: str | None = None
        stage = "html-parse"
        try:
            if tokens is None:
                with trace.span(stage) as span:
                    document = parse_html(html, guard=guard)
                    span.count("chars", len(html))
                    if document.truncated:
                        span.tags["truncated"] = True
                    if document.depth_capped:
                        span.tags["depth_capped"] = True
                        reports.append(DegradationReport(
                            LEVEL_CAPPED, stage,
                            "tree depth cap flattened deeply nested markup",
                            resource="depth",
                        ))
                stage = "layout"
                with trace.span(stage) as span:
                    layout = layout_document(document, guard=guard)
                    if layout.truncated:
                        span.tags["truncated"] = True
                stage = "tokenize"
                with trace.span(stage) as span:
                    forms = document.forms
                    form = self._pick_form(forms, form_index)
                    if form is None:
                        trace.tags["form_fallback"] = True
                        trace.warn(
                            "document has no <form> element; "
                            "tokenized the whole page"
                        )
                        log_event(
                            _logger, logging.WARNING, "extract.no_form_fallback",
                            form_index=form_index,
                        )
                    tokens = FormTokenizer(
                        document, layout=layout, guard=guard
                    ).tokenize(form)
                    span.count("tokens", len(tokens))
                    span.count("forms_on_page", len(forms))
            stage = "parse"
            entry: CacheEntry | None = None
            # Once a ladder stage has degraded, the tokens are not the
            # page's: their entry must neither answer nor be stored.
            degraded = ladder is not None and (bool(reports) or guard.breached)
            if self.cache is not None and not degraded:
                with trace.span("cache") as span:
                    if signature is None:
                        signature = token_signature(tokens)
                    entry = self.cache.get(signature)
                    span.count("hit", 1 if entry is not None else 0)
            if entry is not None:
                # Replay: fresh deserialized objects, the original counters
                # and warnings; no trees or instances were ever stored.
                trace.tags["cache_hit"] = True
                for warning in entry.warnings:
                    trace.warn(warning)
                model = entry.rebuild_model()
                stats = entry.rebuild_stats()
            else:
                parse = self.parser.parse(tokens, guard=guard)
                stats = parse.stats
                construct = trace.add_span(
                    "parse.construct", stats.construction_seconds,
                    counters=stats.counters(),
                )
                if stats.truncated:
                    construct.tags["truncated"] = True
                trace.add_span(
                    "parse.maximize", stats.maximization_seconds,
                    counters={"trees": len(parse.trees)},
                )
                with trace.span("merge") as span:
                    report = self.merger.merge(parse, guard=guard)
                    span.counters.update(report.counters())
                model = report.model
        except FormNotFoundError:
            raise
        except Exception as exc:
            if ladder is None:
                raise
            # The failed stage's span keeps its error tag; the extraction
            # itself still returns a model.
            trace.outcome = "ok"
            failure = f"stage raised {type(exc).__name__}: {exc}"
        if tokens is None:
            tokens = []
        if ladder is None:
            reports = []  # without a ladder, caps are span tags only
        else:
            reports += [
                DegradationReport(
                    LEVEL_CAPPED, event.stage, event.describe(), event.resource
                )
                for event in guard.events
            ]
            if failure is None:
                if not reports and stats is not None and stats.truncated:
                    reports.append(DegradationReport(
                        LEVEL_CAPPED, "parse",
                        "parser budget truncated the fix-point; "
                        "best partial parses kept",
                    ))
                if reports and not model.conditions and tokens:
                    # A cap that left nothing behind is a failure in
                    # disguise -- step down rather than hand back an empty
                    # "capped" model.
                    failure = "budget-capped parse produced no conditions"
            if failure is not None:
                model = self._fall_back(ladder, tokens, stage, failure, reports)
                # The model no longer comes from the parse: drop its trees
                # and merge report, but keep the counters of the work done.
                parse, report = None, None
        if parse is None:  # a replay or a fallback: no trees, no instances
            if stats is None:
                stats = ParseStats(tokens=len(tokens))
            parse = ParseResult(
                trees=[], tokens=tokens, instances=[], stats=stats
            )
        return self._finish(
            trace, tokens, model, parse, report, reports, signature
        )

    @staticmethod
    def _fall_back(
        ladder: ResilienceConfig,
        tokens: list[Token],
        stage: str,
        reason: str,
        reports: list[DegradationReport],
    ) -> SemanticModel:
        """Step below ``capped``: the heuristic once tokens exist (when
        allowed), else the token dump."""
        if stage == "parse" and ladder.heuristic_fallback:
            reports.append(DegradationReport(LEVEL_HEURISTIC, stage, reason))
            try:
                from repro.baseline.heuristic import HeuristicExtractor

                return HeuristicExtractor().extract_from_tokens(tokens)
            except Exception as exc:
                stage = "heuristic"
                reason = f"stage raised {type(exc).__name__}: {exc}"
        reports.append(DegradationReport(LEVEL_MINIMAL, stage, reason))
        return token_dump_model(tokens)

    def _finish(
        self,
        trace: Trace,
        tokens: list[Token],
        model: SemanticModel,
        parse: ParseResult,
        report: MergeReport | None,
        reports: list[DegradationReport],
        signature: str | None,
    ) -> ExtractionResult:
        """Assemble a fresh, replayed or degraded result and surface it:
        warnings, metrics, the cache fill and one log event."""
        result = ExtractionResult(
            model=model,
            parse=parse,
            report=report if report is not None else MergeReport(model=model),
            tokens=tokens,
            trace=trace,
            degradation=reports,
        )
        for entry in reports:
            trace.warn(entry.describe())
        self.metrics.record_trace(trace)
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
        elif trace.tags.get("cache_hit"):
            log_event(
                _logger, logging.DEBUG, "extract.cache_hit",
                tokens=len(tokens),
                conditions=len(model.conditions),
            )
        else:
            if self.cache is not None and signature is not None:
                self.cache.put(signature, CacheEntry.from_result(result))
            log_event(
                _logger, logging.DEBUG, "extract.complete",
                tokens=len(tokens),
                conditions=len(model.conditions),
                conflicts=len(result.report.conflict_tokens),
                missing=len(result.report.missing_tokens),
                truncated=parse.stats.truncated,
                seconds=round(trace.total_seconds, 6),
            )
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
