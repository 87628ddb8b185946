"""Parse-stage micro-benchmark and profiler (``repro bench``).

The pytest benchmarks under ``benchmarks/`` regenerate the paper's
tables; this module is the *developer* entry point for the single number
that perf PRs optimize -- wall time of the parse stage over the standard
120-interface corpus -- plus the profile behind it:

* :func:`generate_token_sets` builds the deterministic synthetic corpus
  (the same generator and seed the pytest benchmarks use, so numbers are
  comparable across both harnesses);
* :func:`run_parse_bench` parses the corpus ``repeats`` times and keeps
  the best wall time (host noise on shared machines easily exceeds 30%,
  so a single-shot number is close to meaningless);
* :func:`profile_parse` runs the corpus under :mod:`cProfile` and
  renders the top cumulative-time entries, so future perf PRs start
  from data, not guesses.  cProfile charges each cyclic-GC collection
  to whichever frame happened to allocate, so the header also reports
  the collections and the time spent in them, counted by a
  :data:`gc.callbacks` hook around the profiled run.

``repro bench --profile`` (or ``REPRO_BENCH_PROFILE=1``) writes the
profile table to ``BENCH_profile.txt`` next to ``BENCH_parse.json``.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import Any

from repro.datasets.domains import DOMAINS
from repro.datasets.generator import GeneratorProfile, SourceGenerator
from repro.grammar.standard import build_standard_grammar
from repro.parser.parser import BestEffortParser
from repro.tokens.model import Token
from repro.tokens.tokenizer import tokenize_html

#: Environment variable that forces ``--profile`` on.
PROFILE_ENV = "REPRO_BENCH_PROFILE"

#: Entries shown in the cProfile table.
PROFILE_TOP = 20

#: The standard corpus parameters (the paper's batch: 120 interfaces of
#: average size ~22 tokens).  ``benchmarks/bench_parse_time.py`` uses the
#: same values, so ``repro bench`` and the pytest benchmarks measure the
#: identical workload.
BATCH_FORMS = 120
BATCH_SIZE_LOW = 14
BATCH_SIZE_HIGH = 32
BATCH_SEED = 61_000


def generate_token_sets(
    target_count: int,
    size_low: int = BATCH_SIZE_LOW,
    size_high: int = BATCH_SIZE_HIGH,
    base_seed: int = BATCH_SEED,
) -> list[list[Token]]:
    """Tokenized synthetic forms whose sizes fall within the band.

    Deterministic in ``base_seed``: the generator walks seeds upward and
    keeps forms whose token count lands inside ``[size_low, size_high]``.
    """
    profile = GeneratorProfile(
        min_conditions=3, max_conditions=7, rare_pattern_prob=0.0
    )
    token_sets: list[list[Token]] = []
    seed = base_seed
    domains = sorted(DOMAINS)
    while len(token_sets) < target_count:
        domain = DOMAINS[domains[seed % len(domains)]]
        source = SourceGenerator(domain, profile).generate(seed)
        seed += 1
        tokens = tokenize_html(source.html)
        if size_low <= len(tokens) <= size_high:
            token_sets.append(tokens)
        if seed - base_seed > 40 * target_count:  # pragma: no cover
            break
    return token_sets


@dataclass
class BenchResult:
    """One ``repro bench`` measurement."""

    forms: int
    average_size: float
    wall_seconds: float
    rounds: list[float] = field(default_factory=list)
    combos_examined: int = 0
    instances_created: int = 0
    #: Forms whose parse stopped at a budget: their wall time measures
    #: the cap, not the parser.
    truncated: int = 0

    def describe(self) -> str:
        per_form = 1000.0 * self.wall_seconds / max(1, self.forms)
        rounds = ", ".join(f"{wall:.3f}" for wall in self.rounds)
        return (
            f"parsed {self.forms} interfaces "
            f"(avg {self.average_size:.1f} tokens)\n"
            f"best wall time: {self.wall_seconds:.3f} s "
            f"({per_form:.1f} ms/interface) over {len(self.rounds)} "
            f"round(s): [{rounds}]\n"
            f"combos examined: {self.combos_examined}, instances created: "
            f"{self.instances_created}, truncated forms: {self.truncated}"
        )


def run_parse_bench(
    token_sets: list[list[Token]],
    repeats: int = 3,
) -> BenchResult:
    """Parse the corpus ``repeats`` times; keep the best wall time.

    The counters are identical across rounds (parsing is deterministic),
    so only the final round's are kept.
    """
    parser = BestEffortParser(build_standard_grammar())
    rounds: list[float] = []
    combos = instances = truncated = 0
    for _ in range(max(1, repeats)):
        combos = instances = truncated = 0
        started = time.perf_counter()
        for tokens in token_sets:
            stats = parser.parse(tokens).stats
            combos += stats.combos_examined
            instances += stats.instances_created
            truncated += stats.truncated
        rounds.append(time.perf_counter() - started)
    average_size = (
        sum(len(tokens) for tokens in token_sets) / len(token_sets)
        if token_sets
        else 0.0
    )
    return BenchResult(
        forms=len(token_sets),
        average_size=average_size,
        wall_seconds=min(rounds),
        rounds=rounds,
        combos_examined=combos,
        instances_created=instances,
        truncated=truncated,
    )


class CollectorTally:
    """A :data:`gc.callbacks` hook counting cyclic-GC collections and the
    wall time spent in them."""

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.collections += 1
            self.seconds += time.perf_counter() - self._started
            self._started = None


def profile_parse(
    token_sets: list[list[Token]],
    top: int = PROFILE_TOP,
) -> str:
    """Render the parse stage's cProfile top-``top`` cumulative table.

    The header also gives the cyclic-GC collections during the run and
    their total time, which the table itself spreads over unrelated
    frames.
    """
    parser = BestEffortParser(build_standard_grammar())
    profiler = cProfile.Profile()
    collector = CollectorTally()
    gc.callbacks.append(collector)
    profiler.enable()
    try:
        for tokens in token_sets:
            parser.parse(tokens)
    finally:
        profiler.disable()
        gc.callbacks.remove(collector)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    header = (
        f"# repro bench profile: {len(token_sets)} interfaces, "
        f"top {top} by cumulative time\n"
        f"# cyclic GC: {collector.collections} collections, "
        f"{1000.0 * collector.seconds:.2f} ms (charged by cProfile to "
        f"whichever frame allocated)\n"
    )
    return header + buffer.getvalue()
