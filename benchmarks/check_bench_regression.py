"""Gate on the scale-free performance numbers in ``BENCH_parse.json``.

Run after the parse/batch benchmarks regenerate the JSON report::

    python benchmarks/check_bench_regression.py [path/to/BENCH_parse.json]

Exits non-zero when any checked quantity regresses past its tolerance.
Only *scale-free* quantities are checked -- ratios and per-form averages
that stay comparable whether the run used the full 120-interface corpus
or a reduced ``REPRO_BENCH_BATCH`` smoke batch:

* ``seminaive`` combos examined **per form** -- the semi-naive
  evaluator's enumeration work must not creep back up;
* ``seminaive`` instances created **per form** -- an exact work counter,
  so a blow-up of temporary instances (every subset of rows stacked as
  a ``QI`` before pruning) cannot come back disguised as wall-clock
  noise;
* ``combo_reduction`` -- semi-naive vs naive enumeration ratio;
* ``cache.hit_rate`` -- an identical second pass must be served from the
  extraction cache;
* ``cached.speedup`` -- a cache replay must stay far cheaper than a
  parse;
* ``parallel.speedup`` -- pooled extraction must beat serial where the
  machine has real parallelism.  The bar is chosen from the **recorded**
  core count (``parallel.usable_cores``), never from the machine running
  this script, so a report written on a 1-core box is never graded
  against a 4-core bar or vice versa.  A run that recorded
  ``parallel.skipped: true`` (single usable core) has no speedup key at
  all; the pool is instead held to its overhead allowance vs serial.

``--require-multicore`` checks the multicore gate *only* (its report
carries just the parallel metrics): it fails unless the report was
recorded on >= 4 usable cores with pooled speedup >= 2.5x -- the CI
``bench-multicore`` job's gate, proving the pool path actually scales
rather than silently certifying overhead on a small runner.

Absolute wall-clock numbers are reported for context but never gated --
they measure the machine, not the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Tolerances.  Current measured values: ~188 combos/form and ~84
# instances/form on the full 120-interface corpus (~201 and ~87 on the
# 30-interface smoke batch, whose form mix skews larger), 3.7x combo
# reduction, 1.0 cache hit rate, ~14x cached speedup.  A lost prefilter
# blows combos/form up by an order of magnitude, so the combo bar's
# headroom still catches every real regression.  The instance bar keeps
# the 1.41x headroom it had over the ~142 instances/form measured before
# linear chain assembly; losing that assembly alone puts the batch back
# above it.
MAX_COMBOS_PER_FORM = 560.0
MAX_INSTANCES_PER_FORM = 118
MIN_COMBO_REDUCTION = 3.0
MIN_CACHE_HIT_RATE = 0.95
MIN_CACHED_SPEEDUP = 5.0
# Speedup bars by the *recorded* core count (see module docstring): a
# 4-core measurement must show real scaling; a 2-3 core one must at
# least beat the pool overhead.
MIN_PARALLEL_SPEEDUP_4CORE = 2.0
MIN_PARALLEL_SPEEDUP_2CORE = 1.2
# The CI bench-multicore gate (``--require-multicore``).
MULTICORE_MIN_CORES = 4
MULTICORE_MIN_SPEEDUP = 2.5
# Single-core allowance, mirroring bench_batch_parallel.py.
SINGLE_CORE_SLACK = 1.35
SINGLE_CORE_STARTUP_SECONDS = 0.5


def _require(metrics: dict, key: str) -> float:
    if key not in metrics:
        raise SystemExit(f"FAIL: metric {key!r} missing from the report -- "
                         f"did the benchmarks run?")
    return metrics[key]


def check(metrics: dict, require_multicore: bool = False) -> list[str]:
    """All regression findings for one metrics report (empty = pass)."""
    problems: list[str] = []

    def gate(label: str, value: float, ok: bool, bar: str) -> None:
        status = "ok  " if ok else "FAIL"
        print(f"  {status}  {label} = {value:g}  (bar: {bar})")
        if not ok:
            problems.append(f"{label} = {value:g} violates {bar}")

    if not require_multicore:
        forms = _require(metrics, "batch120.forms")
        combos = _require(metrics, "batch120.seminaive.combos_examined")
        per_form = combos / max(1, forms)
        print(f"report covers {forms} interfaces")
        gate(
            "seminaive combos per form", round(per_form, 1),
            per_form <= MAX_COMBOS_PER_FORM, f"<= {MAX_COMBOS_PER_FORM:g}",
        )
        instances = _require(metrics, "batch120.seminaive.instances_created")
        per_form = instances / max(1, forms)
        gate(
            "seminaive instances per form", round(per_form, 1),
            per_form <= MAX_INSTANCES_PER_FORM,
            f"<= {MAX_INSTANCES_PER_FORM:g}",
        )
        reduction = _require(metrics, "batch120.combo_reduction")
        gate(
            "combo reduction (naive/seminaive)", reduction,
            reduction >= MIN_COMBO_REDUCTION, f">= {MIN_COMBO_REDUCTION:g}",
        )
        hit_rate = _require(metrics, "batch120.cache.hit_rate")
        gate(
            "cache hit rate (second pass)", hit_rate,
            hit_rate >= MIN_CACHE_HIT_RATE, f">= {MIN_CACHE_HIT_RATE:g}",
        )
        cached_speedup = _require(metrics, "batch120.cached.speedup")
        gate(
            "cached-pass speedup", cached_speedup,
            cached_speedup >= MIN_CACHED_SPEEDUP,
            f">= {MIN_CACHED_SPEEDUP:g}",
        )
    cores = int(metrics.get("batch120.parallel.usable_cores", 1))
    skipped = bool(
        metrics.get("batch120.parallel.skipped")
        or metrics.get("batch120.parallel.single_core")
    )
    if require_multicore:
        gate(
            "multicore run usable cores", cores,
            not skipped and cores >= MULTICORE_MIN_CORES,
            f">= {MULTICORE_MIN_CORES} (bench-multicore job requirement)",
        )
        if not skipped and "batch120.parallel.speedup" in metrics:
            speedup = _require(metrics, "batch120.parallel.speedup")
            gate(
                "multicore pooled speedup", speedup,
                speedup >= MULTICORE_MIN_SPEEDUP,
                f">= {MULTICORE_MIN_SPEEDUP:g}",
            )
        else:
            problems.append(
                "no pooled speedup was measured -- the bench-multicore "
                "job needs a >= 4-core runner"
            )
    elif skipped:
        # Single-core run: no speedup was (or should have been)
        # recorded.  Hold the one-worker pool to its overhead allowance
        # instead of grading a meaningless ratio.
        serial = _require(metrics, "batch120.parallel.serial_wall_seconds")
        pooled = _require(metrics, "batch120.parallel.wall_seconds")
        allowance = serial * SINGLE_CORE_SLACK + SINGLE_CORE_STARTUP_SECONDS
        gate(
            "single-core pool wall seconds", pooled,
            pooled <= allowance,
            f"<= serial*{SINGLE_CORE_SLACK:g}+{SINGLE_CORE_STARTUP_SECONDS:g}"
            f" = {allowance:.3f}",
        )
        if "batch120.parallel.speedup" in metrics:
            problems.append(
                "parallel.speedup recorded on a single-core run -- the "
                "bench must record parallel.skipped instead"
            )
    else:
        # The bar matches the core count the report was recorded on --
        # never the machine running this script.
        speedup = _require(metrics, "batch120.parallel.speedup")
        if cores >= 4:
            bar = MIN_PARALLEL_SPEEDUP_4CORE
        else:
            bar = MIN_PARALLEL_SPEEDUP_2CORE
        gate(
            f"parallel speedup (recorded on {cores} cores)", speedup,
            speedup >= bar, f">= {bar:g}",
        )
    return problems


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "BENCH_parse.json"
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("report", nargs="?", default=str(default),
                     help="path to BENCH_parse.json")
    cli.add_argument("--require-multicore", action="store_true",
                     help="fail unless the report was recorded on >= 4 "
                          "usable cores with pooled speedup >= 2.5x")
    args = cli.parse_args(argv[1:])
    path = Path(args.report)
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"FAIL: cannot read {path}: {error}")
        return 1
    print(f"checking {path}")
    problems = check(metrics, require_multicore=args.require_multicore)
    if problems:
        print(f"\n{len(problems)} regression(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nall performance gates pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
