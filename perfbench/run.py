"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload typical [--seed 0] [--seconds 15]
    python3 perfbench/run.py --workload serve --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed; without the program's sources (``src/repro``) it is 2 and
nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("typical", "stacked", "serve")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(result, units: dict[str, str], extras: dict[str, str]) -> list[str]:
    lines = [
        f"perfbench {result.workload} seed={result.seed} "
        f"trace={int(result.traced)}: {result.attempted} operations, "
        f"{len(result.failures)} failed, samples {result.samples}"
    ]
    for name, unit in list(units.items()) + list(extras.items()):
        source = result.metrics if name in units else result.extras
        if name not in source:
            continue
        raw = result.raw.get(name)
        beside = f"   (raw {raw:.6g})" if raw is not None else ""
        lines.append(f"  {name:<30} {source[name]:>14.6g} {unit}{beside}")
    for name, problem in result.checks.items():
        lines.append(f"  check {name}: {'ok' if problem is None else problem}")
    for reason in sorted(set(result.failures)):
        lines.append(f"  failure: {reason} x{result.failures.count(reason)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; run from "
            "a checkout of the repository", file=sys.stderr,
        )
        return 2
    # Calibration refuses to run while this process has a second thread,
    # so numerical libraries must not start idle worker threads on import.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    RECORDS.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(
            args.workload, ROOT, args.seed, args.seconds, bool(args.trace),
            RECORDS,
        )
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = [name for name in units if name not in result.metrics]
    if missing:
        result.check("all_metrics_reported", f"missing {missing}")
    extras = {
        name: unit for name, unit in workloads.EXTRAS.items()
        if name in result.extras
    }
    print("\n".join(_table(result, units, extras)))
    record = RECORDS / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record.write_text(json.dumps(result.to_dict(), indent=1, sort_keys=True))
    print(f"record: {record.relative_to(ROOT)}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in result.metrics
        },
    }
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
