"""Extraction leaves no cyclic garbage: reference counting frees each page.

Parse instances link to their children only (rollback's parent links
live in the per-parse core), DOM nodes hold their parent weakly, and no
stage builds a self-referencing closure.  So a finished extraction is
freed by reference counting alone the moment its result is dropped.

Every entry point is warmed once, then run over a few pages with the
cyclic collector disabled; a final ``gc.collect()`` must find nothing
unreachable.  While instances still carried parent lists, these five
pages left about 15,000 unreachable objects behind.
"""

from __future__ import annotations

import gc
from typing import Callable

import pytest

from repro.batch.extractor import _extract_one
from repro.datasets.repository import standard_datasets
from repro.extractor import FormExtractor
from repro.html.parser import parse_html
from repro.parser.parser import BestEffortParser
from repro.server.service import _serve_job
from repro.tokens.tokenizer import FormTokenizer

#: Generous: the deadline of ``_extract_one`` (and the SIGALRM backstop it
#: arms on the main thread) is never expected to fire.
TIMEOUT = 60.0


def _form_body(html: str) -> str:
    start = html.index(">", html.index("<form")) + 1
    return html[start:html.index("</form>")]


def _two_form_page(first: str, second: str) -> str:
    """Two forms inside one whole-page ``<form>`` (the ASP.NET layout)."""
    return (
        "<html><head><title>Search</title></head><body>"
        '<form action="/default.aspx" method="post">'
        f"<div>{_form_body(first)}</div>"
        f"<div>{_form_body(second)}</div>"
        "</form></body></html>"
    )


@pytest.fixture(scope="module")
def pages() -> list[str]:
    datasets = standard_datasets(scale=0.02)
    singles = [next(iter(dataset)).html for dataset in datasets.values()]
    basic = [source.html for source in datasets["Basic"]]
    return singles + [_two_form_page(basic[0], basic[1])]


@pytest.fixture(scope="module")
def extractor() -> FormExtractor:
    extractor = FormExtractor()
    extractor.warmup()
    return extractor


def unreachable_after(run: Callable[[object], object], inputs: list) -> int:
    """Objects the cyclic collector finds after running *run* per input.

    The first input warms the path (first-call caches are reachable, but
    building them should not be measured); results are dropped as soon
    as each call returns.
    """
    run(inputs[0])
    gc.collect()
    gc.disable()
    try:
        for item in inputs:
            run(item)
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    def test_extract_detailed(self, extractor, pages):
        assert unreachable_after(extractor.extract_detailed, pages) == 0

    def test_extract_resilient(self, extractor, pages):
        assert unreachable_after(extractor.extract_resilient, pages) == 0

    def test_batch_html_job(self, extractor, pages):
        def run(html):
            record = _extract_one(extractor, "html", 0, html, TIMEOUT)
            assert record.error is None

        assert unreachable_after(run, pages) == 0

    def test_batch_serve_job(self, pages):
        # As serve's workers run it: a ladder extractor, the request's
        # deadline passed through to its guard.
        extractor = FormExtractor(resilience=True)
        extractor.warmup()

        def run(html):
            payload = (_serve_job, (html, 0, TIMEOUT))
            record = _extract_one(extractor, "custom", 0, payload, TIMEOUT)
            assert record.error is None

        assert unreachable_after(run, pages) == 0

    def test_parse_tokens_alone(self, pages, standard_grammar):
        token_sets = []
        for html in pages:
            document = parse_html(html)
            token_sets.append(
                FormTokenizer(document).tokenize(document.forms[0])
            )
        parser = BestEffortParser(standard_grammar)
        assert all(parser.parse(tokens).trees for tokens in token_sets)
        assert unreachable_after(parser.parse, token_sets) == 0
