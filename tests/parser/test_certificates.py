"""Result certificates over the shipped corpora (see ``certificate.py``).

Every parse below must satisfy the paper's definitions from its result
alone: the 252 pages of the four evaluation datasets, the 120 batch
forms one by one and as the 60 two-form pages of the ``stacked``
benchmark, and three wide fuzz mutants.  The last tests break results on
purpose, so a certificate that stopped checking would fail them.
"""

from __future__ import annotations

import pytest

from repro import bench
from repro.datasets.repository import standard_datasets
from repro.extractor import FormExtractor
from repro.parser.parser import BestEffortParser, ExhaustiveParser
from tests.fuzz.mutator import mutant
from tests.parser.certificate import certify, self_subsuming_symbols
from tests.parser.test_chain_assembly import (
    _GRAMMARS,
    _SELF_SUBSUMING,
    _batch_form_bodies,
    _tokens_of,
)

_GRAMMAR = _GRAMMARS["standard"]

#: Wide fuzz mutants (``mutant(20040613, i)``), 96 to 386 tokens.
_WIDE_MUTANTS = (96, 244, 112)


def _stacked(first, second):
    """Two batch120 form bodies inside one whole-page ``<form>``, as the
    ``stacked`` benchmark pairs them."""
    return (
        "<html><head><title>Search</title></head><body>"
        '<form action="/default.aspx" method="post">'
        f"<div>{first}</div><div>{second}</div>"
        "</form></body></html>"
    )


def _certify_page(extractor, html):
    result = extractor.extract_detailed(html)
    assert result.level == "full"
    certify(result.parse, extractor.grammar)


@pytest.mark.parametrize("grammar_name", sorted(_GRAMMARS))
def test_self_subsuming_symbols_read_off_the_grammar(grammar_name):
    symbols = self_subsuming_symbols(_GRAMMARS[grammar_name])
    assert set(symbols) == _SELF_SUBSUMING[grammar_name]


@pytest.mark.parametrize("dataset", sorted(standard_datasets()))
def test_typical_pages(dataset):
    extractor = FormExtractor()
    for source in standard_datasets()[dataset]:
        _certify_page(extractor, source.html)


def test_batch120_forms_one_by_one():
    parser = BestEffortParser(_GRAMMAR)
    for tokens in bench.generate_token_sets(bench.BATCH_FORMS):
        certify(parser.parse(tokens), _GRAMMAR)


def test_batch120_forms_as_stacked_pages():
    bodies = _batch_form_bodies(bench.BATCH_FORMS)
    extractor = FormExtractor()
    for first, second in zip(bodies[0::2], bodies[1::2]):
        _certify_page(extractor, _stacked(first, second))


@pytest.mark.parametrize("index", _WIDE_MUTANTS)
def test_wide_mutants(index):
    _, html = mutant(20040613, index)
    result = BestEffortParser(_GRAMMAR).parse(_tokens_of(html))
    assert not result.stats.truncated
    certify(result, _GRAMMAR)


# ---------------------------------------------------------------------------
# Broken results fail.
# ---------------------------------------------------------------------------


def _parsed():
    return BestEffortParser(_GRAMMAR).parse(bench.generate_token_sets(1)[0])


def test_a_missing_tree_fails():
    result = _parsed()
    result.trees.pop()
    with pytest.raises(AssertionError, match="maximal candidate roots"):
        certify(result, _GRAMMAR)


def test_a_broken_node_fails():
    result = _parsed()
    node = next(
        node for node in result.trees[0].descendants()
        if len(node.children) == 2
    )
    node.coverage_mask |= 1 << 200
    with pytest.raises(AssertionError, match="union of its children"):
        certify(result, _GRAMMAR)


def test_a_parse_without_preferences_fails():
    """The brute-force baseline keeps every stack, subsumed ones too."""
    tokens = _tokens_of(
        "<form>Title <input name=t><br>Author <input name=a><br>"
        "Year <input name=y></form>"
    )
    result = ExhaustiveParser(_GRAMMAR).parse(tokens)
    with pytest.raises(AssertionError, match="is subsumed by alive"):
        certify(result, _GRAMMAR)
