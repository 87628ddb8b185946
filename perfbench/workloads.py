"""The three workloads, their output checks, and their metrics.

* ``typical`` -- the paper's four evaluation datasets (252 single-form
  pages) through ``FormExtractor.extract_detailed`` in this process.
* ``stacked`` -- batch120 as 60 pages of two forms inside one ``<form>``,
  the ``QI -> QI HQI`` blow-up end to end.
* ``serve`` -- ``repro serve`` in a child process, a hot set plus
  never-seen pages over two keep-alive connections.

Every timing is host-normalised (``perfbench.harness``); the raw value
is kept beside it in the run record.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.cache import html_signature
from repro.extractor import FormExtractor
from repro.observability.metrics import MetricsRegistry
from repro.semantics.condition import SemanticModel
from repro.semantics.serialize import model_from_dict, model_to_dict

from perfbench import corpus, inprocess, serving, startup
from perfbench.harness import HostClock, percentile, vm_hwm_mb

#: Unit of every end-to-end metric; each workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "pages_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "precision": "fraction",
    "recall": "fraction",
}

#: Unit of every per-layer metric of the traced run; each workload
#: reports all of them (the cache is off in ``typical`` and ``stacked``,
#: so their cache counts read zero).
PER_LAYER = {
    "setup.import_ms": "ms",
    "grammar.build_ms": "ms",
    "extractor.warmup_ms": "ms",
    "analysis.lint_ms": "ms",
    "batch.pool_warm_ms": "ms",
    "html.ms": "ms",
    "html.share": "fraction",
    "layout.ms": "ms",
    "layout.share": "fraction",
    "tokens.ms": "ms",
    "tokens.share": "fraction",
    "tokens.count": "count",
    "parser.ms": "ms",
    "parser.share": "fraction",
    "parser.construct_ms": "ms",
    "parser.maximize_ms": "ms",
    "parser.instances_created": "count",
    "parser.qi_share": "fraction",
    "parser.alive_ratio": "fraction",
    "parser.combos_examined": "count",
    "parser.combos_prefiltered": "count",
    "parser.spatial_memo_hits": "count",
    "parser.truncated": "count",
    "merger.ms": "ms",
    "merger.share": "fraction",
    "merger.conditions": "count",
    "merger.conflict_tokens": "count",
    "merger.missing_tokens": "count",
    "gc.ms": "ms",
    "gc.share": "fraction",
    "gc.collections": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "fraction",
    "cache.signature_ms": "ms",
    "resilience.degraded": "count",
    "trace.overhead_pages_per_s": "1/s",
}

#: Printed and recorded, but not on the result line: p99 exists only
#: where ten samples lie beyond its band (1,334+ samples), and the
#: server's own layers only in ``serve``.
EXTRAS = {
    "latency_p99_ms": "ms",
    "server.http_ms": "ms",
    "server.service_hit_ms": "ms",
    "server.service_miss_ms": "ms",
    "batch.dispatch_ms": "ms",
    "server.queue_depth_mean": "count",
}

#: Counters on which the traced and untraced runs must agree exactly.
TRACE_AGREEMENT = (
    "parser.instances_created",
    "parser.combos_examined",
    "merger.conditions",
)

SETUP_STARTS = 9
SERVE_SETUP_STARTS = 5
LAYER_SETUP_STARTS = 3

#: ``typical`` and ``stacked`` run with the cache off and no ladder.
CACHE_OFF = {
    "cache.hits": 0, "cache.misses": 0, "cache.hit_ratio": 0.0,
    "resilience.degraded": 0,
}


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    #: Output check name -> None when it passed, else what went wrong.
    checks: dict[str, str | None] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(problem is None for problem in self.checks.values())

    def check(self, name: str, problem: str | None) -> None:
        self.checks[name] = problem

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.traced),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failure_reasons": sorted(set(self.failures)),
            "metrics": self.metrics,
            "raw": self.raw,
            "extras": self.extras,
            "counters": self.counters,
            "checks": self.checks,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class InProcessSpec:
    pages: Callable[[], list[corpus.Page]]
    #: Pages per timed window (calibration runs between windows).
    window_pages: int
    #: A run repeats passes until it has this many page samples.
    min_samples: int


IN_PROCESS = {
    "typical": InProcessSpec(corpus.typical_pages, 4, 1_000),
    # Three passes (180 samples): with two, p90 spread 12.5 % IQR/median.
    "stacked": InProcessSpec(corpus.stacked_pages, 1, 180),
}


def _latency_metrics(result: RunResult, clock: HostClock) -> None:
    """p50/p90 (and p99 when 10 samples lie beyond it), raw beside them."""
    for normalised, target in ((True, result.metrics), (False, result.raw)):
        samples = [1000.0 * value for value in clock.latencies(normalised)]
        for percent in (50, 90):
            target[f"latency_p{percent}_ms"] = percentile(samples, percent)
        try:
            p99 = percentile(samples, 99)
        except ValueError:
            continue
        key = "latency_p99_ms"
        if normalised:
            result.extras[key] = p99
        else:
            result.raw[key] = p99
    result.samples["latency"] = len(clock.latencies())


def _rate(result: RunResult, clock: HostClock, groups: int) -> None:
    """Completed operations per second: the median over *groups* equal
    slices of the windows (whole passes or cycles, so every slice holds
    the same work), which keeps one mis-normalised stretch from moving
    the run.  Failed operations are not completed pages."""
    per_group = len(clock.windows) // groups
    for normalised, target in ((True, result.metrics), (False, result.raw)):
        rates = []
        for group in range(groups):
            windows = clock.windows[group * per_group:(group + 1) * per_group]
            seconds = sum(
                window.raw_seconds * (window.factor if normalised else 1.0)
                for window in windows
            )
            completed = sum(
                1 for window in windows for sample in window.samples
                if math.isfinite(sample)
            )
            rates.append(completed / seconds)
        target["pages_per_s"] = statistics.median(rates)


def _quality(
    result: RunResult, models: list, truths: list
) -> None:
    quality = corpus.quality(models, truths)
    result.metrics["precision"] = quality.precision
    result.metrics["recall"] = quality.recall
    result.counters["quality.matched"] = quality.matched
    result.counters["quality.extracted"] = quality.extracted
    result.counters["quality.expected"] = quality.expected


def _agreement(
    result: RunResult, untraced: dict, traced: dict, label: str
) -> None:
    differing = [
        f"{name}: untraced {untraced[name]} vs traced {traced[name]}"
        for name in TRACE_AGREEMENT
        if untraced[name] != traced[name]
    ]
    result.check(f"trace_agreement_{label}", "; ".join(differing) or None)


def _pass_checks(
    result: RunResult, phase: inprocess.Phase, pinned: str
) -> list:
    """Every pass returned the same models and counters; models match
    the pinned digest.  Returns the first pass's models."""
    digests = []
    counters = []
    for outcomes in phase.passes:
        models = [outcome.model for outcome in outcomes]
        digests.append(
            corpus.model_digest(models) if None not in models else None
        )
        counters.append(inprocess.work_counters(outcomes))
    repeats = all(d == digests[0] for d in digests) and all(
        c == counters[0] for c in counters
    )
    result.check(
        "passes_repeat",
        None if repeats else f"passes differ: digests {digests}",
    )
    result.check(
        "pinned_models",
        None if digests[0] == pinned else (
            f"models changed: digest {digests[0]}, pinned {pinned}"
        ),
    )
    result.counters.update(counters[0])
    result.counters["models.sha256"] = digests[0]
    return [outcome.model for outcome in phase.passes[0]]


def _layer_result(
    result: RunResult,
    extractor: FormExtractor,
    pages: list[corpus.Page],
    seed: int,
    seconds: float,
    window_pages: int,
    untraced_pps: float,
    label: str,
    records: Path,
) -> inprocess.Phase:
    phase = inprocess.run_phase(
        extractor, pages, seconds, window_pages, min_samples=1, traced=True
    )
    phase.tracer.write(records / f"{label}-seed{seed}-spans.json")
    traced_counters = inprocess.work_counters(phase.passes[0])
    _agreement(result, result.counters, traced_counters, label)
    result.attempted += phase.attempted
    result.failures += phase.failures
    totals = phase.clock.totals()
    result.metrics.update(inprocess.layer_metrics(phase))
    result.metrics.update(
        {name: traced_counters[name] for name in traced_counters}
    )
    result.metrics["trace.overhead_pages_per_s"] = (
        untraced_pps - phase.attempted / totals["normalised"]
    )
    clock = HostClock()
    with clock.window() as window:
        for page in pages:
            html_signature(page.html)
    result.metrics["cache.signature_ms"] = (
        1000.0 * window.raw_seconds * window.factor / len(pages)
    )
    return phase


def run_in_process(
    workload: str, root: Path, seed: int, seconds: float, traced: bool,
    records: Path,
) -> RunResult:
    spec = IN_PROCESS[workload]
    result = RunResult(workload, seed, traced)
    pages = spec.pages()
    if traced:
        result.metrics.update(
            startup.setup_layers(root, LAYER_SETUP_STARTS)
        )
    else:
        setup = startup.setup_seconds(
            root, workload, SETUP_STARTS, records / "serve.log"
        )
        result.metrics["setup_s"] = setup["normalised"]
        result.raw["setup_s"] = setup["raw"]
    extractor = FormExtractor()
    extractor.warmup()
    phase = inprocess.run_phase(
        extractor, pages, seconds, spec.window_pages, spec.min_samples
    )
    peak = vm_hwm_mb()
    result.attempted = phase.attempted
    result.failures = phase.failures
    models = _pass_checks(
        result, phase, corpus.PINNED_MODEL_DIGESTS[workload]
    )
    result.samples["passes"] = len(phase.passes)
    result.counters.update(CACHE_OFF)
    if traced:
        untraced_pps = phase.attempted / phase.clock.totals()["normalised"]
        result.metrics.update(CACHE_OFF)
        _layer_result(
            result, extractor, pages, seed, seconds, spec.window_pages,
            untraced_pps, workload, records,
        )
        return result
    _rate(result, phase.clock, len(phase.passes))
    _latency_metrics(result, phase.clock)
    result.metrics["peak_rss_mb"] = peak
    _quality(result, models, [page.truth for page in pages])
    return result


def _model_json(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def _serve_counters(replies: list[serving.Reply]) -> dict[str, float]:
    stats = [reply.payload.get("stats") or {} for reply in replies]
    return {
        "parser.instances_created": sum(
            entry.get("instances_created", 0) for entry in stats
        ),
        "parser.combos_examined": sum(
            entry.get("combos_examined", 0) for entry in stats
        ),
        "parser.truncated": sum(
            bool(entry.get("truncated")) for entry in stats
        ),
        "merger.conditions": sum(
            len((reply.payload.get("model") or {}).get("conditions", []))
            for reply in replies
        ),
    }


def run_serve(
    root: Path, seed: int, seconds: float, traced: bool, records: Path
) -> RunResult:
    result = RunResult("serve", seed, traced)
    pages = corpus.typical_pages()
    hot = corpus.serve_hot_set(pages, seed)
    log = records / "serve.log"
    if traced:
        result.metrics.update(
            startup.setup_layers(root, LAYER_SETUP_STARTS)
        )
    else:
        setup = startup.setup_seconds(root, "serve", SERVE_SETUP_STARTS, log)
        result.metrics["setup_s"] = setup["normalised"]
        result.raw["setup_s"] = setup["raw"]
    server = serving.ServerProcess(root, log)
    try:
        server.wait_ready()
        warmed = serving.warm_hot_set(server.port, hot)
        before = server.metrics()
        timed = serving.timed_requests(server, pages, hot, seed, seconds)
        after = server.metrics()
    finally:
        server.stop()
    replies = timed.replies
    result.attempted = len(replies)
    result.failures = [
        reply.failure for reply in replies if reply.failure is not None
    ]
    result.samples["cycles"] = timed.cycles

    warm_problems = [
        f"{reply.request.page.name}: {reply.failure or 'already cached'}"
        for reply in warmed
        if reply.failure is not None or reply.payload.get("cached")
    ]
    result.check("hot_set_warmed", "; ".join(warm_problems[:5]) or None)

    hits = [reply for reply in replies if reply.request.hot]
    misses = [reply for reply in replies if not reply.request.hot]
    wrong = [
        reply.request.page.name
        for reply in replies
        if bool(reply.payload.get("cached")) != reply.request.hot
    ]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    metric_hits = delta("repro_serve_cache_hits_total")
    metric_misses = delta("repro_serve_cache_misses_total")
    exact = (
        not wrong
        and len(hits) == corpus.HITS_PER_MISS * len(misses)
        and metric_hits == len(hits)
        and metric_misses == len(misses)
    )
    result.check("exact_hit_share", None if exact else (
        f"{len(wrong)} requests hit/missed against plan; /metrics counted "
        f"{metric_hits:g} hits and {metric_misses:g} misses for "
        f"{len(hits)} hot and {len(misses)} never-seen requests"
    ))

    # The output check: every model, hit or miss, equals an in-process
    # extract_resilient of the same page, computed after timing.
    reference = FormExtractor(metrics=MetricsRegistry())
    # Per distinct page: its model as JSON, and (instances, QI instances).
    expected: dict[str, tuple[str, int, int]] = {}
    mismatched = []
    for reply in warmed + replies:
        html = reply.request.page.html
        if html not in expected:
            extraction = reference.extract_resilient(html)
            instances = extraction.parse.instances
            expected[html] = (
                _model_json(extraction.model),
                len(instances),
                sum(1 for instance in instances if instance.symbol == "QI"),
            )
        returned = reply.payload.get("model")
        if returned is None or _model_json(
            model_from_dict(returned)
        ) != expected[html][0]:
            mismatched.append(reply.request.page.name)
    result.check("models_match_in_process", None if not mismatched else (
        f"{len(mismatched)} responses differ, e.g. {mismatched[:3]}"
    ))

    per_cycle = [
        _serve_counters([r for r in misses if r.cycle == cycle])
        for cycle in range(timed.cycles)
    ]
    result.check("cycles_repeat", None if all(
        counters == per_cycle[0] for counters in per_cycle
    ) else f"per-cycle counters differ: {per_cycle}")
    first_cycle = [reply for reply in misses if reply.cycle == 0]
    registered = sum(expected[r.request.page.html][1] for r in first_cycle)
    qi = sum(expected[r.request.page.html][2] for r in first_cycle)
    result.counters.update(per_cycle[0])
    result.counters.update({
        "parser.qi_share": qi / registered if registered else 0.0,
        "cache.hits": len(hits) // timed.cycles,
        "cache.misses": len(misses) // timed.cycles,
        "cache.hit_ratio": len(hits) / len(replies),
        "resilience.degraded": delta("repro_serve_degraded_total"),
    })

    clock = timed.clock
    if traced:
        _serve_layers(result, timed, delta, pages, seed, records)
        return result
    _rate(result, clock, timed.cycles)
    _latency_metrics(result, clock)
    result.metrics["peak_rss_mb"] = timed.peak_rss_mb
    _quality(
        result,
        [model_from_dict(reply.payload["model"]) if reply.payload.get("model")
         else SemanticModel() for reply in first_cycle],
        [reply.request.page.truth for reply in first_cycle],
    )
    return result


def _serve_layers(result, timed, delta, pages, seed, records) -> None:
    """Per-layer numbers of the serving path, plus the in-process layers."""
    windows = timed.clock.windows
    good = [reply for reply in timed.replies if reply.failure is None]

    def mean_ms(values: list[float]) -> float:
        return 1000.0 * sum(values) / len(values) if values else 0.0

    elapsed = {
        id(reply): reply.payload["elapsed_seconds"] * windows[reply.window].factor
        for reply in good
    }
    result.extras["server.http_ms"] = mean_ms([
        reply.latency * windows[reply.window].factor - elapsed[id(reply)]
        for reply in good
    ])
    hit_times = [elapsed[id(r)] for r in good if r.request.hot]
    miss_times = [elapsed[id(r)] for r in good if not r.request.hot]
    result.extras["server.service_hit_ms"] = mean_ms(hit_times)
    result.extras["server.service_miss_ms"] = mean_ms(miss_times)
    totals = timed.clock.totals()
    scale = totals["normalised"] / totals["raw"]
    stage_seconds = delta("repro_span_total_seconds_sum") * scale
    result.extras["batch.dispatch_ms"] = mean_ms(miss_times) - (
        1000.0 * stage_seconds / len(miss_times) if miss_times else 0.0
    )
    depth_count = delta("repro_serve_queue_depth_count")
    result.extras["server.queue_depth_mean"] = (
        delta("repro_serve_queue_depth_sum") / depth_count
        if depth_count else 0.0
    )
    for name in ("cache.hits", "cache.misses", "cache.hit_ratio",
                 "resilience.degraded"):
        result.metrics[name] = result.counters[name]
    # The pipeline layers of a miss, measured in this process on the
    # corpus pages the never-seen requests carry.
    extractor = FormExtractor()
    extractor.warmup()
    untraced = inprocess.run_phase(extractor, pages, 0.0, 4, 1)
    _agreement(
        result, result.counters, inprocess.work_counters(untraced.passes[0]),
        "in_process",
    )
    _layer_result(
        result, extractor, pages, seed, 0.0, 4,
        untraced.attempted / untraced.clock.totals()["normalised"], "serve",
        records,
    )


def run(
    workload: str, root: Path, seed: int, seconds: float, traced: bool,
    records: Path,
) -> RunResult:
    if workload == "serve":
        return run_serve(root, seed, seconds, traced, records)
    return run_in_process(workload, root, seed, seconds, traced, records)
