"""The repository benchmark: workloads, host-normalised timing, tracing.

Run ``python3 perfbench/run.py --workload typical`` from the repository
root; ``perfbench/README.md`` describes the workloads and metrics.
"""
