"""Property-based tests: parser invariants over random token soups.

The best-effort contract: *any* token arrangement parses without errors,
and the structural invariants hold -- coverage sets are consistent, dead
instances never sit below live ones in the derivation DAG, maximal trees
are mutually non-subsuming, and extracted conditions within one tree claim
disjoint tokens.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grammar.standard import build_standard_grammar
from repro.layout.box import BBox
from repro.merger.merger import Merger
from repro.parser.parser import BestEffortParser, ParserConfig
from repro.tokens.model import SelectOption, Token

_GRAMMAR = build_standard_grammar()
_PARSER = BestEffortParser(_GRAMMAR, ParserConfig(max_instances=20_000))

_WORDS = ("Author", "Title", "from", "to", "exact name", "contains",
          "Price", "Search", "miles", "New", "Used", "x", "Keywords:",
          "starts with", "Any", "2004")


@st.composite
def token_soups(draw):
    """Random plausible form layouts: tokens on a loose grid."""
    count = draw(st.integers(min_value=0, max_value=14))
    tokens = []
    for index in range(count):
        terminal = draw(st.sampled_from(
            ("text", "textbox", "selectlist", "radiobutton", "checkbox",
             "submitbutton")
        ))
        column = draw(st.integers(min_value=0, max_value=3))
        row = draw(st.integers(min_value=0, max_value=5))
        left = 10.0 + column * 120 + draw(st.integers(0, 30))
        top = 10.0 + row * 24 + draw(st.integers(0, 4))
        width = {"text": 60.0, "textbox": 110.0, "selectlist": 80.0,
                 "radiobutton": 13.0, "checkbox": 13.0,
                 "submitbutton": 60.0}[terminal]
        height = 13.0 if terminal in ("radiobutton", "checkbox") else 20.0
        attrs = {}
        if terminal == "text":
            attrs["sval"] = draw(st.sampled_from(_WORDS))
        elif terminal == "selectlist":
            attrs["name"] = f"sel{index}"
            attrs["options"] = (
                SelectOption("a", "a"), SelectOption("b", "b"),
            )
        elif terminal != "submitbutton":
            attrs["name"] = f"f{index}"
            if terminal in ("radiobutton", "checkbox"):
                attrs["value"] = f"v{index}"
        tokens.append(Token(
            id=index, terminal=terminal,
            bbox=BBox(left, left + width, top, top + height),
            attrs=attrs,
        ))
    return tokens


def parents_by_uid(instances):
    """Reverse derivation edges: child uid -> the instances built from it.

    Instances link to their children only; the reverse view is rebuilt
    from the ``children`` of every instance the parse returned.
    """
    parents = defaultdict(list)
    for instance in instances:
        for child in instance.children:
            parents[child.uid].append(instance)
    return parents


class TestParserInvariants:
    @given(token_soups())
    @settings(max_examples=60, deadline=None)
    def test_never_raises(self, tokens):
        _PARSER.parse(tokens)

    @given(token_soups())
    @settings(max_examples=40, deadline=None)
    def test_tree_coverage_within_input(self, tokens):
        result = _PARSER.parse(tokens)
        token_ids = {token.id for token in tokens}
        for tree in result.trees:
            assert tree.coverage <= token_ids

    @given(token_soups())
    @settings(max_examples=40, deadline=None)
    def test_coverage_equals_leaf_tokens(self, tokens):
        result = _PARSER.parse(tokens)
        for tree in result.trees:
            leaves = {
                node.token.id
                for node in tree.descendants()
                if node.token is not None
            }
            assert leaves == tree.coverage

    @given(token_soups())
    @settings(max_examples=40, deadline=None)
    def test_trees_alive_and_parentless(self, tokens):
        result = _PARSER.parse(tokens)
        parents = parents_by_uid(result.instances)
        for tree in result.trees:
            assert tree.alive
            assert not any(parent.alive for parent in parents[tree.uid])

    @given(token_soups())
    @settings(max_examples=40, deadline=None)
    def test_maximal_trees_mutually_nonsubsuming(self, tokens):
        result = _PARSER.parse(tokens)
        for i, first in enumerate(result.trees):
            for second in result.trees[i + 1:]:
                assert not first.coverage < second.coverage
                assert not second.coverage < first.coverage

    @given(token_soups())
    @settings(max_examples=40, deadline=None)
    def test_no_live_parent_of_dead_child(self, tokens):
        result = _PARSER.parse(tokens)
        parents = parents_by_uid(result.instances)
        for instance in result.instances:
            if not instance.alive and not instance.is_terminal:
                assert not any(p.alive for p in parents[instance.uid])

    @given(token_soups())
    @settings(max_examples=40, deadline=None)
    def test_conditions_disjoint_within_tree(self, tokens):
        result = _PARSER.parse(tokens)
        for tree in result.trees:
            seen: set[int] = set()
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.payload.get("condition") is not None:
                    assert not (seen & node.coverage)
                    seen |= node.coverage
                    continue
                stack.extend(node.children)

    @given(token_soups())
    @settings(max_examples=30, deadline=None)
    def test_merger_never_raises_and_is_consistent(self, tokens):
        result = _PARSER.parse(tokens)
        report = Merger().merge(result)
        token_ids = {token.id for token in tokens}
        for entry in report.extracted:
            assert entry.coverage <= token_ids
        # missing + unclaimed + claimed text partition the text tokens.
        claimed: set[int] = set()
        for entry in report.extracted:
            claimed |= entry.coverage
        missing_ids = {t.id for t in report.missing_tokens}
        unclaimed_ids = {t.id for t in report.unclaimed_text_tokens}
        assert not (missing_ids & unclaimed_ids)
        for token in tokens:
            if token.terminal == "text":
                assert (
                    token.id in claimed
                    or token.id in missing_ids
                    or token.id in unclaimed_ids
                )

    @given(token_soups())
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, tokens):
        first = _PARSER.parse(tokens)
        second = _PARSER.parse(tokens)
        assert [t.coverage for t in first.trees] == [
            t.coverage for t in second.trees
        ]
