"""Extraction inside the benchmark process (``typical``, ``stacked``).

The untraced run sends each page through ``FormExtractor.extract_detailed``
with the cache off and one caller in a closed loop.  The traced run calls
each layer's public entry point itself -- ``parse_html``,
``layout_document``, ``FormTokenizer(doc, layout=...).tokenize``,
``BestEffortParser.parse``, ``Merger.merge`` -- inside spans, which is
the same work ``extract_detailed`` does, so both runs must agree exactly
on the work counters.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.extractor import FormExtractor
from repro.html.parser import parse_html
from repro.layout.engine import layout_document
from repro.resilience.ladder import LEVEL_FULL
from repro.semantics.condition import SemanticModel
from repro.tokens.tokenizer import FormTokenizer

from perfbench.corpus import Page
from perfbench.harness import HostClock, Tracer, Window

#: A timed phase never starts another pass after this many seconds.
MAX_PHASE_SECONDS = 100.0

#: The layers a traced page is split into, in pipeline order.
LAYERS = ("html", "layout", "tokens", "parser", "merger")


@dataclass
class PageOutcome:
    """What one extraction returned, reduced to checks and counters."""

    model: SemanticModel | None
    window: int
    instances_created: int = 0
    instances_alive: int = 0
    instances_registered: int = 0
    qi_instances: int = 0
    combos_examined: int = 0
    combos_prefiltered: int = 0
    spatial_memo_hits: int = 0
    truncated: bool = False
    tokens: int = 0
    conditions: int = 0
    conflict_tokens: int = 0
    missing_tokens: int = 0
    construct_seconds: float = 0.0
    maximize_seconds: float = 0.0
    #: Why the operation failed, or None.
    failure: str | None = None

    @classmethod
    def from_parts(cls, window, tokens, parse, report, level) -> "PageOutcome":
        stats = parse.stats
        outcome = cls(
            model=report.model,
            window=window,
            instances_created=stats.instances_created,
            instances_alive=stats.instances_alive,
            instances_registered=len(parse.instances),
            qi_instances=sum(
                1 for instance in parse.instances if instance.symbol == "QI"
            ),
            combos_examined=stats.combos_examined,
            combos_prefiltered=stats.combos_prefiltered,
            spatial_memo_hits=stats.spatial_memo_hits,
            truncated=stats.truncated,
            tokens=len(tokens),
            conditions=len(report.model.conditions),
            conflict_tokens=len(report.conflict_tokens),
            missing_tokens=len(report.missing_tokens),
            construct_seconds=stats.construction_seconds,
            maximize_seconds=stats.maximization_seconds,
        )
        if stats.truncated:
            outcome.failure = "truncated parse"
        elif level != LEVEL_FULL:
            outcome.failure = f"ladder level {level}"
        return outcome


@dataclass
class Phase:
    """One timed phase: its windows and, per pass, one outcome per page."""

    clock: HostClock
    passes: list[list[PageOutcome]] = field(default_factory=list)
    tracer: Tracer | None = None
    #: (first span, end span, window) for every traced window.
    span_ranges: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(outcomes) for outcomes in self.passes)

    @property
    def failures(self) -> list[str]:
        return [
            outcome.failure
            for outcomes in self.passes
            for outcome in outcomes
            if outcome.failure is not None
        ]


def _untraced(extractor: FormExtractor, page: Page, window: int):
    started = time.perf_counter()
    result = extractor.extract_detailed(page.html)
    elapsed = time.perf_counter() - started
    return elapsed, lambda: PageOutcome.from_parts(
        window, result.tokens, result.parse, result.report, result.level
    )


def _traced(
    extractor: FormExtractor, page: Page, window: int, tracer: Tracer,
    item: str,
):
    started = time.perf_counter()
    with tracer.span("page", item):
        with tracer.span("html", item):
            document = parse_html(page.html)
        with tracer.span("layout", item):
            layout = layout_document(document)
        with tracer.span("tokens", item):
            forms = document.forms
            tokens = FormTokenizer(document, layout=layout).tokenize(
                forms[0] if forms else None
            )
        with tracer.span("parser", item):
            parse = extractor.parser.parse(tokens)
        with tracer.span("merger", item):
            report = extractor.merger.merge(parse)
    elapsed = time.perf_counter() - started
    return elapsed, lambda: PageOutcome.from_parts(
        window, tokens, parse, report, LEVEL_FULL
    )


def run_phase(
    extractor: FormExtractor,
    pages: list[Page],
    seconds: float,
    window_pages: int,
    min_samples: int,
    traced: bool = False,
) -> Phase:
    """Whole passes over *pages* until *seconds* and *min_samples* are met.

    Every pass sends the pages in corpus order: garbage one page leaves
    is still being collected while the next ones parse, so the order
    moves memory and time.  Across three shuffled orders of ``stacked``
    peak RSS read 405, 613 and 966 MB; in corpus order it repeats to
    0.1 %.  Each window times ``window_pages`` consecutive pages; what a
    page returned is reduced to counters only after its window has
    closed, so the windows time extraction alone.
    """
    phase = Phase(clock=HostClock(), tracer=Tracer() if traced else None)
    started = time.perf_counter()

    def more() -> bool:
        if not phase.passes:
            return True
        elapsed = time.perf_counter() - started
        if elapsed > MAX_PHASE_SECONDS:
            return False
        return elapsed < seconds or phase.attempted < min_samples

    collecting = phase.tracer.collecting() if traced else nullcontext()
    with collecting:
        while more():
            _one_pass(extractor, pages, window_pages, phase)
    return phase


def _extract_chunk(
    extractor: FormExtractor,
    pages: list[Page],
    chunk: list[int],
    window: Window,
    tracer: Tracer | None,
    number: int,
) -> list[tuple[int, Callable[[], PageOutcome] | None, str | None]]:
    """Time each page of *chunk* into *window*; reduce them later."""
    finished = []
    for index in chunk:
        try:
            if tracer is not None:
                elapsed, reduce = _traced(
                    extractor, pages[index], window.index, tracer,
                    f"{number}:{index}",
                )
            else:
                elapsed, reduce = _untraced(
                    extractor, pages[index], window.index
                )
        except Exception as exc:  # noqa: BLE001 - counted as failed
            window.samples.append(math.inf)
            finished.append((index, None, f"raised {type(exc).__name__}: {exc}"))
            continue
        window.samples.append(elapsed)
        finished.append((index, reduce, None))
    return finished


def _settle(finished, outcomes: list, window: Window) -> None:
    """Reduce a closed window's results to outcomes; failures become +inf."""
    for position, (index, reduce, failure) in enumerate(finished):
        if reduce is None:
            outcomes[index] = PageOutcome(None, window.index, failure=failure)
            continue
        outcome = outcomes[index] = reduce()
        if outcome.failure is not None:
            window.samples[position] = math.inf


def _one_pass(
    extractor: FormExtractor,
    pages: list[Page],
    window_pages: int,
    phase: Phase,
) -> None:
    tracer = phase.tracer
    number = len(phase.passes)
    outcomes: list[PageOutcome | None] = [None] * len(pages)
    for start in range(0, len(pages), window_pages):
        chunk = list(range(start, min(start + window_pages, len(pages))))
        first = len(tracer.spans) if tracer is not None else 0
        with phase.clock.window() as window:
            finished = _extract_chunk(
                extractor, pages, chunk, window, tracer, number
            )
        if tracer is not None:
            phase.span_ranges.append((first, len(tracer.spans), window.index))
        _settle(finished, outcomes, window)
        # Drop this window's results before the next page is extracted,
        # so peak memory does not depend on which pages run back to back.
        del finished
    phase.passes.append(outcomes)


def work_counters(outcomes: list[PageOutcome]) -> dict[str, float]:
    """Exact per-pass work counters; they must repeat run after run."""
    created = sum(outcome.instances_created for outcome in outcomes)
    registered = sum(outcome.instances_registered for outcome in outcomes)
    return {
        "parser.instances_created": created,
        "parser.qi_share": (
            sum(outcome.qi_instances for outcome in outcomes) / registered
            if registered else 0.0
        ),
        "parser.alive_ratio": (
            sum(outcome.instances_alive for outcome in outcomes) / created
            if created else 0.0
        ),
        "parser.combos_examined": sum(
            outcome.combos_examined for outcome in outcomes
        ),
        "parser.combos_prefiltered": sum(
            outcome.combos_prefiltered for outcome in outcomes
        ),
        "parser.spatial_memo_hits": sum(
            outcome.spatial_memo_hits for outcome in outcomes
        ),
        "parser.truncated": sum(outcome.truncated for outcome in outcomes),
        "tokens.count": sum(outcome.tokens for outcome in outcomes),
        "merger.conditions": sum(outcome.conditions for outcome in outcomes),
        "merger.conflict_tokens": sum(
            outcome.conflict_tokens for outcome in outcomes
        ),
        "merger.missing_tokens": sum(
            outcome.missing_tokens for outcome in outcomes
        ),
    }


def layer_metrics(phase: Phase) -> dict[str, float]:
    """Host-normalised per-page layer times and shares of a traced phase."""
    tracer = phase.tracer
    windows = phase.clock.windows
    own: dict[str, float] = {}
    page_seconds = 0.0
    collections = 0
    for first, last, window in phase.span_ranges:
        factor = windows[window].factor
        for name, seconds in tracer.self_seconds(first, last).items():
            own[name] = own.get(name, 0.0) + seconds * factor
        page_seconds += factor * sum(
            span.end - span.start
            for span in tracer.spans[first:last]
            if span.name == "page"
        )
        collections += tracer.count("gc", first, last)
    outcomes = [outcome for passed in phase.passes for outcome in passed]
    pages = len(outcomes)
    metrics: dict[str, float] = {}
    for layer in LAYERS + ("gc",):
        metrics[f"{layer}.ms"] = 1000.0 * own.get(layer, 0.0) / pages
        metrics[f"{layer}.share"] = own.get(layer, 0.0) / page_seconds
    for name, attribute in (
        ("parser.construct_ms", "construct_seconds"),
        ("parser.maximize_ms", "maximize_seconds"),
    ):
        metrics[name] = 1000.0 * sum(
            getattr(outcome, attribute) * windows[outcome.window].factor
            for outcome in outcomes
        ) / pages
    metrics["gc.collections"] = collections / len(phase.passes)
    return metrics
