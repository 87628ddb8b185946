"""Tests for parse instances."""

from repro.grammar.instance import Instance
from tests.conftest import make_token


def terminal(token_id=0, terminal_type="text", left=0.0, top=0.0, **attrs):
    return Instance.for_token(
        make_token(token_id, terminal_type, left, top, **attrs)
    )


def parent_of(*children, symbol="X"):
    box = children[0].bbox
    for child in children[1:]:
        box = box.union(child.bbox)
    return Instance(symbol=symbol, bbox=box, children=tuple(children))


class TestConstruction:
    def test_terminal_wraps_token(self):
        token = make_token(7, "textbox", 0, 0, name="q")
        instance = Instance.for_token(token)
        assert instance.symbol == "textbox"
        assert instance.coverage == frozenset({7})
        assert instance.token is token
        assert instance.is_terminal
        assert instance.payload["name"] == "q"

    def test_coverage_derived_from_children(self):
        a, b = terminal(0), terminal(1, left=100)
        parent = parent_of(a, b)
        assert parent.coverage == frozenset({0, 1})
        assert not parent.is_terminal

    def test_uids_unique_and_increasing(self):
        a, b = terminal(0), terminal(1)
        assert b.uid > a.uid

    def test_alive_by_default(self):
        assert terminal().alive

    def test_links_point_downwards_only(self):
        # Parent links live in the parse core, so a forest holds no
        # child -> parent back-reference.
        child = terminal(0)
        parent_of(child)
        assert not hasattr(child, "parents")


class TestTreeStructure:
    def test_descendants_preorder(self):
        a, b = terminal(0), terminal(1, left=100)
        mid = parent_of(a, symbol="M")
        root = parent_of(mid, b, symbol="R")
        symbols = [node.symbol for node in root.descendants()]
        assert symbols[0] == "R"
        assert set(symbols) == {"R", "M", "text"}

    def test_is_ancestor_of(self):
        a = terminal(0)
        mid = parent_of(a, symbol="M")
        root = parent_of(mid, symbol="R")
        assert root.is_ancestor_of(a)
        assert root.is_ancestor_of(mid)
        assert not a.is_ancestor_of(root)
        assert not root.is_ancestor_of(root)

    def test_size_counts_all_nodes(self):
        a, b = terminal(0), terminal(1, left=100)
        root = parent_of(parent_of(a, symbol="M"), b, symbol="R")
        assert root.size() == 4

    def test_tokens_in_id_order(self):
        a, b = terminal(5, left=100), terminal(2)
        root = parent_of(a, b)
        assert [t.id for t in root.tokens()] == [2, 5]

    def test_find_all(self):
        a, b = terminal(0), terminal(1, left=100)
        root = parent_of(parent_of(a, symbol="M"), parent_of(b, symbol="M"),
                         symbol="R")
        assert len(list(root.find_all("M"))) == 2


class TestConflicts:
    def test_disjoint_no_conflict(self):
        a, b = terminal(0), terminal(1, left=100)
        assert not parent_of(a).conflicts_with(parent_of(b))

    def test_shared_token_conflicts(self):
        shared = terminal(0)
        first = parent_of(shared, symbol="A")
        second = Instance(symbol="B", bbox=shared.bbox, children=(shared,))
        assert first.conflicts_with(second)
        assert second.conflicts_with(first)

    def test_ancestry_is_not_conflict(self):
        a = terminal(0)
        mid = parent_of(a, symbol="M")
        root = parent_of(mid, symbol="R")
        assert not root.conflicts_with(mid)
        assert not mid.conflicts_with(root)

    def test_no_conflict_with_self(self):
        instance = parent_of(terminal(0))
        assert not instance.conflicts_with(instance)


class TestPresentation:
    def test_pretty_is_indented_tree(self):
        root = parent_of(terminal(0), symbol="CP")
        rendered = root.pretty()
        lines = rendered.splitlines()
        assert lines[0] == "CP"
        assert lines[1].startswith("  ")

    def test_repr_shows_death(self):
        instance = parent_of(terminal(0))
        instance.alive = False
        assert "DEAD" in repr(instance)
