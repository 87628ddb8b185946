"""Steadiness: run each workload N times and show how far the runs spread.

From the repository root::

    python3 perfbench/steady.py --runs 10 [--workload typical ...]
                                [--seconds 10] [--first-seed 1] [--trace 0]

Each run is ``perfbench/run.py`` in a fresh process with its own seed.
For every metric it prints the median, the quartiles and IQR/median of
the host-normalised values and, beside them, of the raw wall-clock
values, next to the metric's bound from ``BENCHMARK.json``; a spread
must stay below a third of its bound.  It also checks that the exact
work counters and the models repeat in every run, and exits non-zero
when a run failed a check or a spread is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_build" / "perfbench"
RUN = Path(__file__).with_name("run.py")
RUN_TIMEOUT = 600

#: Counters each run must reproduce exactly (besides the model digest).
EXACT = (
    "parser.instances_created",
    "parser.qi_share",
    "parser.combos_examined",
    "parser.truncated",
    "cache.hits",
    "cache.misses",
    "merger.conditions",
    "models.sha256",
    "quality.matched",
    "quality.extracted",
    "quality.expected",
)


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and IQR/median, as the acceptance rule takes them."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": first,
        "q3": third,
        "iqr_over_median": (third - first) / middle if middle else 0.0,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT,
    )
    lines = completed.stdout.strip().splitlines()
    record_path = RECORDS / f"{workload}-seed{seed}-trace{trace}.json"
    if completed.returncode not in (0, 1) or not lines:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}")
    record = json.loads(record_path.read_text())
    record["result_line"] = json.loads(lines[-1])
    record["exit_code"] = completed.returncode
    record["wall_seconds"] = time.monotonic() - started
    return record


def summarise(
    workload: str, records: list[dict], bounds: dict[str, float | None]
) -> bool:
    """Print the spread table and the exactness checks; True when steady."""
    steady = True
    print(f"\n== {workload}: {len(records)} runs, seeds "
          f"{[record['seed'] for record in records]}")
    print(f"   wall seconds per run: "
          f"{[round(record['wall_seconds'], 1) for record in records]}")
    header = (f"   {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'raw iqr/med':>11} {'bound':>6}  verdict")
    print(header)
    for name in records[0]["result_line"]["metrics"]:
        values = [record["metrics"][name] for record in records]
        normalised = spread(values)
        raw_values = [record["raw"].get(name) for record in records]
        raw = (
            f"{spread(raw_values)['iqr_over_median']:>11.4f}"
            if None not in raw_values else f"{'-':>11}"
        )
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(setup: medians compared only)"
        elif normalised["iqr_over_median"] <= bound / 3:
            verdict = "ok"
        elif normalised["iqr_over_median"] <= bound:
            verdict = "within bound, above bound/3"
        else:
            verdict = "TOO NOISY"
            steady = False
        print(f"   {name:<28} {normalised['median']:>12.6g} "
              f"{normalised['q1']:>12.6g} {normalised['q3']:>12.6g} "
              f"{normalised['iqr_over_median']:>8.4f} {raw} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    for name in records[0]["extras"]:
        values = [record["extras"].get(name) for record in records]
        if None in values:
            continue
        normalised = spread(values)
        print(f"   {name + ' (not gated)':<28} {normalised['median']:>12.6g} "
              f"{normalised['q1']:>12.6g} {normalised['q3']:>12.6g} "
              f"{normalised['iqr_over_median']:>8.4f}")
    for name in EXACT:
        values = {json.dumps(record["counters"].get(name)) for record in records}
        if len(values) != 1:
            steady = False
            print(f"   counter {name} differs between runs: {sorted(values)}")
    print(f"   exact counters repeat: "
          f"{all(len({json.dumps(r['counters'].get(n)) for r in records}) == 1 for n in EXACT)}")
    broken = [
        (record["seed"], name, problem)
        for record in records
        for name, problem in record["checks"].items()
        if problem is not None
    ]
    for seed, name, problem in broken:
        print(f"   seed {seed}: check {name} failed: {problem}")
    failed = sum(record["failed"] for record in records)
    print(f"   operations failed: {failed} of "
          f"{sum(record['attempted'] for record in records)}")
    return steady and not broken and failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    bounds = {
        metric["name"]: metric.get("bound")
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    steady = True
    for workload in workloads:
        records = [
            run_once(workload, args.first_seed + index, seconds, args.trace)
            for index in range(args.runs)
        ]
        summary = RECORDS / f"steady-{workload}-trace{args.trace}.json"
        summary.write_text(json.dumps(records, indent=1))
        steady = summarise(workload, records, bounds) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
