"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datasets.fixtures import QAM_HTML


@pytest.fixture()
def qam_file(tmp_path):
    path = tmp_path / "qam.html"
    path.write_text(QAM_HTML, encoding="utf-8")
    return str(path)


class TestExtract:
    def test_plain_output(self, qam_file, capsys):
        assert main(["extract", qam_file]) == 0
        output = capsys.readouterr().out
        assert "[Author;" in output
        assert "[Publisher;" in output

    def test_json_output(self, qam_file, capsys):
        assert main(["extract", qam_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == 1
        attributes = [c["attribute"] for c in document["conditions"]]
        assert "Author" in attributes

    def test_trace_goes_to_stderr(self, qam_file, capsys):
        assert main(["extract", qam_file, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "tokens=" in captured.err
        assert "tokens=" not in captured.out

    def test_trace_prints_pipeline_spans(self, qam_file, capsys):
        assert main(["extract", qam_file, "--trace"]) == 0
        err = capsys.readouterr().err
        for stage in ("html-parse", "tokenize", "parse.construct",
                      "parse.maximize", "merge"):
            assert f"span {stage}:" in err

    def test_out_of_range_form_is_an_error(self, qam_file, capsys):
        assert main(["extract", qam_file, "--form", "7"]) == 2
        err = capsys.readouterr().err
        assert "out of range" in err

    def test_no_form_fallback_warns(self, tmp_path, capsys):
        path = tmp_path / "bare.html"
        path.write_text("<html><body>Query: <input name=q></body></html>")
        assert main(["extract", str(path)]) == 0
        assert "no <form> element" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--resilient"]],
                             ids=["plain", "ladder"])
    def test_log_json_emits_json_lines(self, tmp_path, capsys, flags):
        path = tmp_path / "bare.html"
        path.write_text("<html><body>Query: <input name=q></body></html>")
        assert main(["--log-json", "extract", str(path), *flags]) == 0
        err = capsys.readouterr().err
        json_lines = [
            json.loads(line) for line in err.splitlines()
            if line.startswith("{")
        ]
        assert any(
            line["event"] == "extract.no_form_fallback" for line in json_lines
        )

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(QAM_HTML))
        assert main(["extract", "-"]) == 0
        assert "[Author;" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["extract", "/no/such/file.html"]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_page(self, tmp_path, capsys):
        path = tmp_path / "empty.html"
        path.write_text("<html></html>")
        assert main(["extract", str(path)]) == 0
        assert "no conditions" in capsys.readouterr().out


class TestEvaluate:
    def test_quick_evaluation(self, capsys):
        assert main(["evaluate", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "Basic" in output
        assert "Random" in output

    def test_metrics_json_with_parallel_jobs(self, tmp_path, capsys):
        # ISSUE acceptance: `evaluate --jobs 4 --metrics out.json` emits
        # valid JSON with per-stage span durations and pipeline counters
        # matching ParseStats.
        out = tmp_path / "metrics.json"
        assert main([
            "evaluate", "--scale", "0.05", "--jobs", "4",
            "--metrics", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        extracted = payload["counters"]["extract.ok"]
        assert extracted > 0
        for stage in ("html-parse", "tokenize", "parse.construct",
                      "parse.maximize", "merge"):
            histogram = payload["histograms"][f"span.{stage}.seconds"]
            assert histogram["count"] == extracted
            assert histogram["total"] >= 0.0
        from repro.parser.parser import ParseStats

        stats_names = set(ParseStats().counters())
        construct = {
            name.removeprefix("span.parse.construct.")
            for name in payload["counters"]
            if name.startswith("span.parse.construct.")
        }
        assert construct == stats_names
        assert payload["counters"]["span.parse.construct.instances_created"] > 0

    def test_evaluate_trace_summary(self, capsys):
        assert main(["evaluate", "--scale", "0.05", "--trace"]) == 0
        err = capsys.readouterr().err
        assert "span.parse.construct.seconds" in err
        assert "mean=" in err


class TestCacheFlags:
    @pytest.mark.parametrize("flags", [[], ["--resilient"]],
                             ids=["plain", "ladder"])
    def test_extract_with_cache_dir_persists_across_runs(
        self, qam_file, tmp_path, capsys, flags
    ):
        cache_dir = str(tmp_path / "cache")
        argv = ["extract", qam_file, "--cache-dir", cache_dir, *flags]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "cache" / "extraction-cache.jsonl").exists()
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_extract_cache_flag_accepted(self, qam_file, capsys):
        # In-memory cache: one process, no hit to observe, but output is
        # identical to the uncached run.
        assert main(["extract", qam_file]) == 0
        plain = capsys.readouterr().out
        assert main(["extract", qam_file, "--cache"]) == 0
        assert capsys.readouterr().out == plain

    def test_no_cache_overrides_cache_dir(self, qam_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "extract", qam_file, "--cache-dir", cache_dir, "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert not (tmp_path / "cache").exists()

    def test_evaluate_cache_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main([
            "evaluate", "--scale", "0.05", "--cache",
            "--metrics", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        counters = payload["counters"]
        assert "batch.cache.misses" in counters
        assert counters["batch.cache.misses"] > 0
        assert counters.get("batch.cache.hits", 0) == 0

    def test_evaluate_jobs_auto(self, capsys):
        assert main(["evaluate", "--scale", "0.05", "--jobs", "auto"]) == 0
        assert "Basic" in capsys.readouterr().out


class TestStructuredInputErrors:
    def test_unreadable_file_exits_2(self, capsys):
        assert main(["extract", "/no/such/file.html"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: code=unreadable file=/no/such/file.html")
        assert err.count("\n") == 1  # one line, no traceback

    def test_empty_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "empty.html"
        path.write_text("")
        assert main(["extract", str(path)]) == 3
        assert "code=empty-input" in capsys.readouterr().err

    def test_whitespace_only_is_empty(self, tmp_path, capsys):
        path = tmp_path / "blank.html"
        path.write_text("   \n\t  \n")
        assert main(["extract", str(path)]) == 3
        assert "code=empty-input" in capsys.readouterr().err

    def test_not_html_exits_4(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("just some plain prose, no markup anywhere")
        assert main(["extract", str(path)]) == 4
        assert "code=not-html" in capsys.readouterr().err

    def test_empty_stdin_exits_3(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["extract", "-"]) == 3
        assert "code=empty-input file=-" in capsys.readouterr().err

    def test_form_not_found_is_structured(self, qam_file, capsys):
        assert main(["extract", qam_file, "--form", "7"]) == 2
        err = capsys.readouterr().err
        assert "code=form-not-found" in err
        assert "out of range" in err

    def test_resume_requires_journal(self, capsys):
        assert main(["evaluate", "--resume"]) == 2
        assert "code=usage" in capsys.readouterr().err


class TestResilienceFlags:
    def test_extract_resilient_matches_plain_output(self, qam_file, capsys):
        assert main(["extract", qam_file]) == 0
        plain = capsys.readouterr().out
        assert main(["extract", qam_file, "--resilient"]) == 0
        assert capsys.readouterr().out == plain

    def test_resilient_survives_hostile_input(self, tmp_path, capsys):
        path = tmp_path / "hostile.html"
        path.write_text(
            "<form>" + "<div>" * 5000 + "<input name=q>"
            + "</div>" * 5000 + "</form>"
        )
        assert main(["extract", str(path), "--resilient", "--json"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["format"] == 1

    def test_evaluate_journal_then_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        out = tmp_path / "metrics.json"
        assert main([
            "evaluate", "--scale", "0.02", "--journal", journal,
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "evaluate", "--scale", "0.02", "--journal", journal,
            "--resume", "--metrics", str(out),
        ]) == 0
        assert capsys.readouterr().out == first
        counters = json.loads(out.read_text())["counters"]
        assert counters["batch.resume.skipped"] > 0
        assert counters["batch.resume.corrupt_lines"] == 0

    def test_evaluate_resilient(self, capsys):
        assert main(["evaluate", "--scale", "0.02", "--resilient"]) == 0
        assert "Basic" in capsys.readouterr().out


class TestGrammar:
    def test_grammar_listing(self, capsys):
        assert main(["grammar"]) == 0
        output = capsys.readouterr().out
        assert "QI -> " in output
        assert "productions" in output


class TestLint:
    def test_lints_all_grammars_clean(self, capsys):
        assert main(["lint"]) == 0
        output = capsys.readouterr().out
        for name in ("standard", "example", "navmenu"):
            assert f"grammar {name}:" in output
        assert "0 error(s)" in output

    def test_single_grammar_selection(self, capsys):
        assert main(["lint", "--grammar", "example"]) == 0
        output = capsys.readouterr().out
        assert "grammar example:" in output
        assert "grammar standard:" not in output

    def test_standard_grammar_warnings_are_printed(self, capsys):
        assert main(["lint", "--grammar", "standard"]) == 0
        output = capsys.readouterr().out
        assert "G006 warning" in output

    def test_json_reports(self, capsys):
        assert main(["lint", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [report["grammar"] for report in reports] == [
            "standard", "example", "navmenu",
        ]
        assert all(report["schema"] == 2 for report in reports)
        assert all(report["summary"]["error"] == 0 for report in reports)

    def test_single_grammar_json(self, capsys):
        assert main(["lint", "--grammar", "standard", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        codes = {d["code"] for d in reports[0]["diagnostics"]}
        # Hygiene findings plus the semantic passes' pinned families
        # (tests/analysis/test_clean_grammars.py pins the exact counts).
        assert codes == {"G006", "S003", "G021", "G023", "G024", "P011"}

    def test_rejects_unknown_grammar(self):
        with pytest.raises(SystemExit):
            main(["lint", "--grammar", "nonexistent"])

    def test_coverage_matrix_human(self, capsys):
        assert main(
            ["lint", "--grammar", "standard", "--coverage"]
        ) == 0
        output = capsys.readouterr().out
        assert "coverage" in output
        assert "uncovered" in output
        assert "total:" in output

    def test_coverage_matrix_json(self, capsys):
        assert main(
            ["lint", "--grammar", "standard", "--coverage", "--json"]
        ) == 0
        reports = json.loads(capsys.readouterr().out)
        matrix = reports[0]["coverage"]
        statuses = {row["status"] for row in matrix["shapes"]}
        assert statuses <= {"covered", "assembly-only", "uncovered"}

    def test_explain_known_code(self, capsys):
        assert main(["lint", "--explain", "G020"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("G020")
        assert "fix:" in output

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--explain", "Z999"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_candidate_good_is_admitted(self, capsys):
        assert main(
            ["lint", "--candidate",
             "examples/candidates/good_candidate.json"]
        ) == 0
        assert "accept" in capsys.readouterr().out

    def test_candidate_bad_is_rejected(self, capsys):
        assert main(
            ["lint", "--candidate",
             "examples/candidates/bad_candidate.json"]
        ) == 1
        assert "reject" in capsys.readouterr().out

    def test_candidate_json_output(self, capsys):
        assert main(
            ["lint", "--json", "--candidate",
             "examples/candidates/bad_candidate.json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["verdict"] == "reject"
        assert payload["admitted"] is False

    def test_candidate_unreadable_exits_2(self, capsys, tmp_path):
        assert main(
            ["lint", "--candidate", str(tmp_path / "missing.json")]
        ) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_candidate_malformed_exits_2(self, capsys, tmp_path):
        payload = tmp_path / "cand.json"
        payload.write_text('{"head": "A"}')
        assert main(["lint", "--candidate", str(payload)]) == 2
        assert "invalid candidate" in capsys.readouterr().err


class TestParserErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
