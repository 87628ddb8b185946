"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``extract FILE``  -- extract a query form's semantic model from an HTML
  file (``-`` reads stdin); ``--json`` emits the serialized model,
  ``--trace`` adds per-stage pipeline spans and statistics, ``--form N``
  picks the N-th form (out-of-range indices are an error, not a guess),
  ``--resilient`` runs under the degradation ladder (always produces a
  model, reporting downgrades as warnings).
* ``evaluate``      -- run the Figure 15 evaluation over the four
  synthetic datasets (``--scale`` shrinks them for a quick look;
  ``--jobs N`` fans extraction over N worker processes (``auto`` = usable
  cores); ``--metrics out.json`` dumps aggregated pipeline counters and
  per-stage span histograms; ``--timeout``/``--retries`` set the batch
  engine's fault-tolerance knobs; ``--journal PATH`` checkpoints per-form
  outcomes and ``--resume`` replays them after a crash; ``--resilient``
  runs the degradation ladder; ``--trace`` prints the stage timing
  summary).
* ``bench``         -- time the parse stage over the standard synthetic
  corpus (``--forms N``, ``--repeats N`` keeps the best of N rounds;
  ``--profile`` or ``REPRO_BENCH_PROFILE=1`` additionally writes a
  cProfile top-20 cumulative table to ``BENCH_profile.txt``/``--profile-out``,
  headed by the cyclic-GC collections and their time).
* ``grammar``       -- print the derived global grammar.
* ``lint``          -- statically analyze the built-in grammars
  (``--grammar standard|example|navmenu|all``, default ``all``) and print
  every diagnostic; ``--json`` emits machine-readable reports (schema 2).
  Exits 1 when any error-severity diagnostic is found (the CI gate), 0
  otherwise.  ``--coverage`` adds the tokenizer-relative coverage matrix
  (which attribute-pattern shapes the grammar can derive);
  ``--candidate FILE.json`` runs the admission gate on a machine-proposed
  production against ``--grammar`` (exit 0 admitted, 1 rejected, 2 for an
  unusable payload); ``--explain CODE`` prints one catalogue entry.

Both ``extract`` and ``evaluate`` take the caching trio: ``--cache``
(in-memory extraction cache), ``--cache-dir DIR`` (disk-backed cache that
persists across invocations and is shared by pool workers), and
``--no-cache`` (force caching off, overriding the other two).

Bad inputs fail with a one-line structured error (``error: code=<reason>
file=<path>: <detail>``) and a distinct exit code -- 2 for an unreadable
file (or other I/O trouble), 3 for an empty input, 4 for input that is
not HTML -- never with a traceback.

Global flags: ``--log-level LEVEL`` enables structured logging to stderr,
``--log-json`` switches it to JSON lines.
"""

from __future__ import annotations

import argparse
import sys

from repro.evaluation.harness import EvaluationHarness
from repro.extractor import FormExtractor, FormNotFoundError
from repro.grammar.standard import build_standard_grammar
from repro.observability.logs import configure_logging
from repro.observability.metrics import MetricsRegistry
from repro.semantics.serialize import model_to_json


#: Exit codes for rejected inputs (0 = success; argparse usage errors
#: also exit 2, matching the unreadable-input class).
EXIT_UNREADABLE = 2
EXIT_EMPTY_INPUT = 3
EXIT_NOT_HTML = 4


def _fail(code: int, reason: str, path: str, detail: str) -> int:
    """One structured error line to stderr; returns the exit code."""
    print(f"error: code={reason} file={path}: {detail}", file=sys.stderr)
    return code


def _read_html_input(path: str) -> tuple[str | None, int]:
    """Read and validate one HTML input (``-`` = stdin).

    Returns ``(html, 0)`` on success, or ``(None, exit_code)`` after
    printing a one-line structured error: unreadable files exit 2, empty
    inputs 3, inputs with no markup at all 4.
    """
    if path == "-":
        html = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                html = fh.read()
        except OSError as error:
            return None, _fail(
                EXIT_UNREADABLE, "unreadable", path, str(error)
            )
    if not html.strip():
        return None, _fail(
            EXIT_EMPTY_INPUT, "empty-input", path, "input is empty"
        )
    if "<" not in html:
        return None, _fail(
            EXIT_NOT_HTML, "not-html", path,
            "input contains no markup (expected HTML)",
        )
    return html, 0


def _resolve_cache(args: argparse.Namespace):
    """The ``--cache/--cache-dir/--no-cache`` trio -> (cache, cache_dir).

    ``--no-cache`` wins; ``--cache-dir`` implies caching on.
    """
    if args.no_cache:
        return None, None
    if args.cache_dir:
        return True, args.cache_dir
    if args.cache:
        return True, None
    return None, None


def _cmd_extract(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.cache import CACHE_FILENAME, ExtractionCache

    html, code = _read_html_input(args.file)
    if html is None:
        return code
    use_cache, cache_dir = _resolve_cache(args)
    cache = None
    if cache_dir is not None:
        cache = ExtractionCache(path=Path(cache_dir) / CACHE_FILENAME)
    elif use_cache:
        cache = ExtractionCache()
    extractor = FormExtractor(cache=cache, resilience=args.resilient or None)
    try:
        detail = extractor.extract_detailed(html, form_index=args.form)
    except FormNotFoundError as error:
        return _fail(EXIT_UNREADABLE, "form-not-found", args.file, str(error))
    for warning in detail.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(model_to_json(detail.model))
    else:
        output = detail.model.describe()
        print(output if output else "(no conditions extracted)")
    if args.render:
        from repro.debug import render_parse_summary, render_tokens

        print("\n# rendered token layout:", file=sys.stderr)
        print(render_tokens(detail.tokens), file=sys.stderr)
        print("\n# parse forest:", file=sys.stderr)
        print(
            render_parse_summary(detail.parse.trees, detail.tokens),
            file=sys.stderr,
        )
    if args.trace:
        stats = detail.parse.stats
        print(
            f"\n# tokens={stats.tokens} trees={len(detail.parse.trees)} "
            f"instances={stats.instances_created} "
            f"pruned={stats.instances_pruned} "
            f"time={stats.elapsed_seconds * 1000:.1f}ms",
            file=sys.stderr,
        )
        for span in detail.trace.spans:
            counters = " ".join(
                f"{name}={value}" for name, value in sorted(span.counters.items())
            )
            print(
                f"# span {span.name}: {span.seconds * 1000:.2f}ms"
                + (f" {counters}" if counters else ""),
                file=sys.stderr,
            )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.datasets.repository import standard_datasets

    if args.resume and not args.journal:
        return _fail(
            EXIT_UNREADABLE, "usage", "-", "--resume requires --journal"
        )
    registry = MetricsRegistry()
    datasets = standard_datasets(scale=args.scale)
    use_cache, cache_dir = _resolve_cache(args)
    harness = EvaluationHarness(
        jobs=args.jobs,
        metrics=registry,
        timeout=args.timeout,
        retries=args.retries,
        cache=use_cache,
        cache_dir=cache_dir,
        journal=args.journal,
        resume=args.resume,
        resilience=args.resilient or None,
    )
    print("dataset       n     Pa      Ra    accuracy")
    for name, dataset in datasets.items():
        result = harness.evaluate(dataset)
        overall = result.overall
        print(
            f"{name:12s} {len(dataset):3d}  {overall.precision:.3f}   "
            f"{overall.recall:.3f}   {result.accuracy:.3f}"
        )
    if args.trace:
        snapshot = registry.to_dict()
        print("\n# per-stage span durations (seconds):", file=sys.stderr)
        for name, histogram in snapshot["histograms"].items():
            if not name.startswith("span.") or not name.endswith(".seconds"):
                continue
            print(
                f"# {name}: count={histogram['count']} "
                f"total={histogram['total']:.3f} mean={histogram['mean']:.5f} "
                f"max={histogram['max']:.5f}",
                file=sys.stderr,
            )
    if args.metrics:
        try:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                fh.write(registry.to_json())
                fh.write("\n")
        except OSError as error:
            return _fail(
                EXIT_UNREADABLE, "unwritable", args.metrics, str(error)
            )
        print(f"# metrics written to {args.metrics}", file=sys.stderr)
    return 0


#: The grammars ``repro lint`` knows how to build, by CLI name.
def _lint_targets() -> dict:
    from repro.apps.navmenu import build_menu_grammar
    from repro.grammar.example_g import build_example_grammar

    return {
        "standard": build_standard_grammar,
        "example": build_example_grammar,
        "navmenu": build_menu_grammar,
    }


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import analyze_grammar, explain

    if args.explain is not None:
        entry = explain(args.explain)
        if entry is None:
            return _fail(
                EXIT_UNREADABLE, "unknown-code", "-",
                f"no diagnostic code {args.explain!r} in the catalogue",
            )
        print(entry.describe())
        return 0

    if args.candidate is not None:
        return _lint_candidate(args)

    vocabulary = None
    if args.coverage:
        from repro.grammar.vocabulary import tokenizer_vocabulary

        vocabulary = tokenizer_vocabulary()

    targets = _lint_targets()
    names = list(targets) if args.grammar == "all" else [args.grammar]
    reports = []
    matrices = []
    for name in names:
        grammar = targets[name]()
        reports.append(
            analyze_grammar(grammar, name=name, vocabulary=vocabulary)
        )
        if vocabulary is not None:
            from repro.analysis import coverage_matrix

            matrices.append(coverage_matrix(grammar, vocabulary))
    if args.json:
        payload = [report.to_dict() for report in reports]
        if matrices:
            for entry_dict, matrix in zip(payload, matrices):
                entry_dict["coverage"] = matrix
        print(json.dumps(payload, indent=2))
    else:
        for index, report in enumerate(reports):
            print(report.describe())
            if matrices:
                from repro.analysis import render_coverage_matrix

                print(render_coverage_matrix(matrices[index]))
    return 1 if any(report.has_errors for report in reports) else 0


def _cmd_lint_candidate_load(path: str) -> "tuple[object | None, int]":
    """Read and parse one candidate JSON payload (``-`` = stdin)."""
    from repro.analysis import CandidateError, CandidateProduction

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as error:
        return None, _fail(EXIT_UNREADABLE, "unreadable", path, str(error))
    try:
        return CandidateProduction.from_json(text), 0
    except CandidateError as error:
        return None, _fail(EXIT_UNREADABLE, "bad-candidate", path, str(error))


def _lint_candidate(args: argparse.Namespace) -> int:
    """``repro lint --candidate FILE``: run the admission gate.

    Exits 0 when the candidate is admitted (with or without warnings),
    1 when it is rejected, 2 when the payload itself is unusable.
    """
    from repro.analysis import admit_production, as_view

    candidate, code = _cmd_lint_candidate_load(args.candidate)
    if candidate is None:
        return code
    # The gate needs one concrete grammar; "all" means the default one.
    name = "standard" if args.grammar == "all" else args.grammar
    grammar = _lint_targets()[name]()
    report = admit_production(as_view(grammar), candidate)  # type: ignore[arg-type]
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.describe())
    return 0 if report.admitted else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench import (
        PROFILE_ENV,
        generate_token_sets,
        profile_parse,
        run_parse_bench,
    )

    token_sets = generate_token_sets(args.forms)
    result = run_parse_bench(token_sets, repeats=args.repeats)
    print(result.describe())
    profile_requested = args.profile or os.environ.get(
        PROFILE_ENV, ""
    ) not in ("", "0")
    if profile_requested:
        report = profile_parse(token_sets)
        try:
            with open(args.profile_out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as error:
            return _fail(
                EXIT_UNREADABLE, "unwritable", args.profile_out, str(error)
            )
        print(f"# profile written to {args.profile_out}", file=sys.stderr)
    return 0


def _cmd_grammar(_args: argparse.Namespace) -> int:
    grammar = build_standard_grammar()
    print(grammar.describe())
    stats = grammar.stats()
    print(
        f"\n# {stats['productions']} productions, "
        f"{stats['nonterminals']} nonterminals, "
        f"{stats['terminals']} terminals, "
        f"{stats['preferences']} preferences"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ServerConfig, run_server

    use_cache, cache_dir = _resolve_cache(args)
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            max_queue=args.queue,
            default_deadline_seconds=args.deadline,
            max_deadline_seconds=max(args.max_deadline, args.deadline),
            # serve caches by default (the warm-hit path is the point of the
            # service); only an explicit --no-cache turns it off.
            cache=not args.no_cache,
            cache_dir=cache_dir if use_cache else None,
            cache_generation=args.cache_generation,
            drain_seconds=args.drain,
            client_max_inflight=args.client_slots,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            max_connections=args.max_connections,
            idle_timeout_seconds=args.idle_timeout,
            header_timeout_seconds=args.header_timeout,
            body_timeout_seconds=args.body_timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_seconds=args.breaker_reset,
            validate_grammar=not args.no_grammar_check,
        )
    except ValueError as error:
        return _fail(EXIT_UNREADABLE, "usage", "-", str(error))
    run_server(config)
    return 0


def _job_count(value: str) -> int | str:
    if value == "auto":
        return value
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _add_cache_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--cache", action="store_true",
                         help="enable the in-memory extraction cache")
    command.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="directory for a disk-backed extraction cache "
                              "(persists across runs, shared by workers; "
                              "implies --cache)")
    command.add_argument("--no-cache", action="store_true",
                         help="disable extraction caching (overrides "
                              "--cache/--cache-dir)")


def _positive_seconds(value: str) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {seconds}")
    return seconds


def _retry_count(value: str) -> int:
    retries = int(value)
    if retries < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {retries}")
    return retries


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Best-effort parsing of Web query interfaces "
        "(SIGMOD 2004 reproduction)",
    )
    parser.add_argument(
        "--log-level", default=None,
        help="enable structured logging to stderr at this level "
             "(DEBUG, INFO, WARNING, ...)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured logs as JSON lines (implies --log-level INFO)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    extract = subparsers.add_parser(
        "extract", help="extract a form's semantic model from HTML"
    )
    extract.add_argument("file", help="HTML file path, or - for stdin")
    extract.add_argument("--form", type=int, default=0,
                         help="which form on the page (default 0)")
    extract.add_argument("--json", action="store_true",
                         help="emit the serialized model as JSON")
    extract.add_argument("--trace", action="store_true",
                         help="print per-stage pipeline spans and "
                              "statistics to stderr")
    extract.add_argument("--render", action="store_true",
                         help="print an ASCII sketch of the rendered "
                              "tokens and the parse forest to stderr")
    extract.add_argument("--resilient", action="store_true",
                         help="extract under the degradation ladder: "
                              "always produce a model, reporting "
                              "downgrades as warnings")
    _add_cache_flags(extract)
    extract.set_defaults(func=_cmd_extract)

    evaluate = subparsers.add_parser(
        "evaluate", help="run the Figure 15 evaluation"
    )
    evaluate.add_argument("--scale", type=float, default=0.2,
                          help="dataset scale (1.0 = paper sizes)")
    evaluate.add_argument("--jobs", type=_job_count, default=1,
                          help="worker processes for extraction "
                               "(default 1 = serial; 'auto' = usable cores)")
    evaluate.add_argument("--metrics", metavar="PATH", default=None,
                          help="write aggregated pipeline metrics "
                               "(counters + span histograms) as JSON")
    evaluate.add_argument("--trace", action="store_true",
                          help="print the per-stage timing summary "
                               "to stderr")
    evaluate.add_argument("--timeout", type=_positive_seconds, default=None,
                          help="per-form extraction deadline in seconds: "
                               "a form past it fails, or with --resilient "
                               "its model degrades")
    evaluate.add_argument("--retries", type=_retry_count, default=0,
                          help="extra attempts for failed forms "
                               "(default 0)")
    evaluate.add_argument("--journal", metavar="PATH", default=None,
                          help="checkpoint per-form outcomes to this "
                               "JSONL journal")
    evaluate.add_argument("--resume", action="store_true",
                          help="replay completed forms from --journal "
                               "instead of re-extracting them")
    evaluate.add_argument("--resilient", action="store_true",
                          help="extract under the degradation ladder: "
                               "pathological forms degrade instead of "
                               "erroring")
    _add_cache_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    bench = subparsers.add_parser(
        "bench", help="benchmark the parse stage on the synthetic corpus"
    )
    bench.add_argument("--forms", type=int, default=120,
                       help="corpus size (default 120, the paper's batch)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="rounds to run; the best wall time is "
                            "reported (default 3)")
    bench.add_argument("--profile", action="store_true",
                       help="also run the corpus under cProfile and write "
                            "the top-20 cumulative table, headed by the "
                            "cyclic-GC collections and their time "
                            "(REPRO_BENCH_PROFILE=1 does the same)")
    bench.add_argument("--profile-out", metavar="PATH",
                       default="BENCH_profile.txt",
                       help="where to write the profile table "
                            "(default BENCH_profile.txt)")
    bench.set_defaults(func=_cmd_bench)

    serve = subparsers.add_parser(
        "serve", help="run the extraction HTTP service on the warmed pool"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 asks for an ephemeral port "
                            "(default 8080)")
    serve.add_argument("--jobs", type=_job_count, default="auto",
                       help="worker processes (default 'auto' = usable "
                            "cores; 1 = no pool, in-process worker thread)")
    serve.add_argument("--queue", type=int, default=64,
                       help="max requests admitted but unfinished before "
                            "shedding with 429 (default 64)")
    serve.add_argument("--deadline", type=_positive_seconds, default=10.0,
                       help="default per-request deadline in seconds; "
                            "breaches degrade the model, not the request "
                            "(default 10)")
    serve.add_argument("--max-deadline", type=_positive_seconds, default=30.0,
                       help="ceiling on client-requested deadlines "
                            "(default 30)")
    serve.add_argument("--drain", type=_positive_seconds, default=10.0,
                       help="graceful-shutdown allowance for in-flight "
                            "requests (default 10)")
    serve.add_argument("--client-slots", type=int, default=None,
                       metavar="N",
                       help="per-client cap on concurrent admitted requests "
                            "(fairness; default: no cap)")
    serve.add_argument("--client-rate", type=_positive_seconds, default=None,
                       metavar="R",
                       help="per-client sustained admissions per second "
                            "(token bucket; default: unlimited)")
    serve.add_argument("--client-burst", type=_positive_seconds, default=10.0,
                       metavar="B",
                       help="token-bucket burst capacity per client "
                            "(default 10; only with --client-rate)")
    serve.add_argument("--max-connections", type=int, default=512,
                       help="open-socket ceiling; connections past it get a "
                            "fast 503 (default 512)")
    serve.add_argument("--idle-timeout", type=_positive_seconds, default=75.0,
                       help="close keep-alive connections idle this long "
                            "(default 75)")
    serve.add_argument("--header-timeout", type=_positive_seconds,
                       default=10.0,
                       help="budget for reading a request head; slow peers "
                            "get 408 (default 10)")
    serve.add_argument("--body-timeout", type=_positive_seconds, default=20.0,
                       help="budget for reading a request body (default 20)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="pool failures in the window that open the "
                            "circuit breaker (default 5)")
    serve.add_argument("--breaker-reset", type=_positive_seconds, default=5.0,
                       help="breaker cooldown before a half-open probe "
                            "(default 5)")
    serve.add_argument("--no-grammar-check", action="store_true",
                       help="skip the startup grammar lint (by default a "
                            "grammar with error-severity diagnostics "
                            "kills the server before the port binds)")
    serve.add_argument("--cache-generation", default=None, metavar="TAG",
                       help="explicit cache generation tag (default: the "
                            "grammar fingerprint; changing either "
                            "invalidates old cache entries logically)")
    _add_cache_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    grammar = subparsers.add_parser(
        "grammar", help="print the derived global grammar"
    )
    grammar.set_defaults(func=_cmd_grammar)

    lint = subparsers.add_parser(
        "lint", help="statically analyze the built-in grammars"
    )
    lint.add_argument(
        "--grammar", default="all",
        choices=["standard", "example", "navmenu", "all"],
        help="which grammar to lint (default: all)",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON reports "
                           "(schema 2)")
    lint.add_argument("--coverage", action="store_true",
                      help="additionally check and render the "
                           "tokenizer-relative coverage matrix "
                           "(attribute-pattern shapes vs derivability)")
    lint.add_argument("--candidate", metavar="FILE.json", default=None,
                      help="run the admission gate on a machine-proposed "
                           "production (JSON payload; '-' reads stdin) "
                           "against --grammar (default standard); exits "
                           "0 admitted / 1 rejected")
    lint.add_argument("--explain", metavar="CODE", default=None,
                      help="print the catalogue entry for one diagnostic "
                           "code (e.g. G020) and exit")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.log_json or args.log_level is not None:
        configure_logging(
            json_output=args.log_json,
            level=(args.log_level or "INFO").upper(),
        )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
