"""A fresh interpreter reaching "ready", for set-up timing.

Run by ``perfbench/startup.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/coldstart.py extractor   # prints "ready"
    python3 perfbench/coldstart.py layers      # prints per-step seconds

``extractor`` is what a library user pays before the first page:
``import repro``, ``FormExtractor()``, ``.warmup()``.  ``layers`` calls the
public set-up functions one at a time, in the order ``repro serve`` needs
them, and reports each step's wall seconds as one JSON line.  This file
imports nothing but the standard library before timing starts.
"""

import json
import sys
import time


def _layers() -> dict[str, float]:
    steps: dict[str, float] = {}
    mark = time.perf_counter()

    def step(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        steps[name] = now - mark
        mark = now

    import repro

    step("setup.import")
    from repro.grammar.cache import cached_standard_grammar

    cached_standard_grammar()
    step("grammar.build")
    repro.FormExtractor().warmup()
    step("extractor.warmup")
    from repro.analysis import analyze_grammar

    analyze_grammar(repro.build_standard_grammar(), name="serving")
    step("analysis.lint")
    pool = repro.BatchExtractor(jobs=2)
    pool.warm()
    step("batch.pool_warm")
    pool.close()
    return steps


def main(mode: str) -> int:
    if mode == "extractor":
        import repro

        repro.FormExtractor().warmup()
        print("ready", flush=True)
        return 0
    if mode == "layers":
        print(json.dumps(_layers()), flush=True)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
