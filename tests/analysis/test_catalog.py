"""The diagnostic catalogue stays in sync with what the passes emit."""

import re
from pathlib import Path

import pytest

from repro.analysis import CATALOG, SEVERITIES, CatalogEntry, explain

ANALYSIS_DIR = (
    Path(__file__).resolve().parent.parent.parent
    / "src"
    / "repro"
    / "analysis"
)

#: Code literals in the pass sources.  Most are ``code="G0xx"`` keyword
#: arguments; G012/G013 are bound through a loop variable, so the
#: pattern matches any quoted code literal.
_CODE_PATTERN = re.compile(r'"([A-Z]\d{3})"')

#: Files that *reference* codes without emitting them.
_NON_PASS_FILES = {"catalog.py", "admit.py"}


def emittable_codes():
    codes = set()
    for path in ANALYSIS_DIR.glob("*.py"):
        if path.name in _NON_PASS_FILES:
            continue
        codes.update(_CODE_PATTERN.findall(path.read_text()))
    return codes


class TestCatalogSync:
    def test_every_emittable_code_is_catalogued(self):
        emitted = emittable_codes()
        assert emitted, "no Diagnostic constructions found -- regex stale?"
        missing = emitted - set(CATALOG)
        assert not missing, f"codes emitted but not catalogued: {missing}"

    def test_every_catalogued_code_is_emittable(self):
        # The reverse direction: a catalogue entry nothing can emit is a
        # leftover from a removed pass.
        stale = set(CATALOG) - emittable_codes()
        assert not stale, f"catalogued but never emitted: {stale}"

    def test_expected_families_are_present(self):
        for code in (
            "G001", "G010", "G020", "G021", "G022", "G023", "G024",
            "G030", "G031", "P001", "P010", "P011", "P012", "P013", "P014",
            "C001", "C002", "C003", "C004", "C005", "S001", "S003",
        ):
            assert code in CATALOG, code

    def test_entries_are_complete(self):
        for code, entry in CATALOG.items():
            assert isinstance(entry, CatalogEntry)
            assert entry.code == code
            assert entry.severity in SEVERITIES, code
            assert entry.summary, code
            assert entry.fix, code


class TestExplain:
    def test_known_code(self):
        entry = explain("G020")
        assert entry is not None
        assert entry.code == "G020"
        assert entry.severity == "warning"

    def test_lookup_is_case_insensitive(self):
        assert explain("g030") is explain("G030")

    def test_unknown_code_is_none(self):
        assert explain("Z999") is None

    @pytest.mark.parametrize("code", sorted(CATALOG))
    def test_describe_renders_every_entry(self, code):
        text = explain(code).describe()
        assert text.startswith(code)
        assert "finding:" in text
        assert "fix:" in text


class TestCatalogMatchesDocs:
    def test_grammar_md_documents_every_code(self):
        # docs/GRAMMAR.md renders the same catalogue for humans; every
        # stable code must appear there.
        docs = (
            Path(__file__).resolve().parent.parent.parent
            / "docs"
            / "GRAMMAR.md"
        ).read_text()
        missing = [code for code in sorted(CATALOG) if code not in docs]
        assert not missing, f"codes absent from docs/GRAMMAR.md: {missing}"
