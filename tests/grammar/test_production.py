"""Tests for productions ⟨H, M, C, F⟩."""

import pytest

from repro.grammar.instance import Instance
from repro.grammar.production import Production
from repro.parser.core import ParseCore
from tests.conftest import make_token


def text_instance(token_id, left=0.0, sval="x"):
    return Instance.for_token(
        make_token(token_id, "text", left, 0.0, sval=sval)
    )


class TestDefinition:
    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            Production(head="X", components=())

    def test_auto_name(self):
        production = Production(head="X", components=("a", "b"))
        assert production.name == "X<-a+b"

    def test_str(self):
        production = Production(head="X", components=("a", "b"))
        assert str(production) == "X -> a b"

    def test_repeated_component_symbols_allowed(self):
        Production(head="Pair", components=("text", "text"))


class TestApplication:
    def test_successful_application(self):
        production = Production(
            head="Attr",
            components=("text",),
            constructor=lambda tx: {"attribute": tx.payload["sval"]},
        )
        source = text_instance(0, sval="Author")
        result = production.try_apply((source,))
        assert result is not None
        assert result.symbol == "Attr"
        assert result.payload == {"attribute": "Author"}
        assert result.coverage == frozenset({0})
        assert result.children == (source,)
        assert result.production is production

    def test_parent_link_established(self):
        # The link lives in the parse core: registering the result
        # records it against the component's intern id.
        production = Production(head="X", components=("text",))
        source = text_instance(0)
        core = ParseCore(instances_left=10, combos_left=10)
        core.register(source)
        result = production.try_apply((source,))
        core.register(result)
        assert core.parents[source.iid] == [result]
        assert core.parents[result.iid] == []

    def test_constraint_rejects(self):
        production = Production(
            head="X", components=("text",), constraint=lambda t: False
        )
        assert production.try_apply((text_instance(0),)) is None

    def test_constraint_receives_in_order(self):
        received = []

        def constraint(a, b):
            received.append((a.payload["sval"], b.payload["sval"]))
            return True

        production = Production(
            head="X", components=("text", "text"), constraint=constraint
        )
        production.try_apply(
            (text_instance(0, sval="first"), text_instance(1, 50, "second"))
        )
        assert received == [("first", "second")]

    def test_duplicate_instance_rejected(self):
        production = Production(head="X", components=("text", "text"))
        instance = text_instance(0)
        assert production.try_apply((instance, instance)) is None

    def test_overlapping_coverage_rejected(self):
        production = Production(head="X", components=("text", "text"))
        shared = text_instance(0)
        wrapper = Production(head="W", components=("text",)).try_apply(
            (shared,)
        )
        # wrapper and shared cover the same token.
        mixed = Production(head="X", components=("W", "text"))
        assert mixed.try_apply((wrapper, shared)) is None

    def test_constructor_veto(self):
        production = Production(
            head="X", components=("text",), constructor=lambda t: None
        )
        assert production.try_apply((text_instance(0),)) is None

    def test_bbox_is_union(self):
        production = Production(head="X", components=("text", "text"))
        a = text_instance(0, left=0)
        b = text_instance(1, left=100)
        result = production.try_apply((a, b))
        assert result.bbox == a.bbox.union(b.bbox)

    def test_rejection_leaves_no_parent_links(self):
        production = Production(
            head="X", components=("text",), constraint=lambda t: False
        )
        source = text_instance(0)
        core = ParseCore(instances_left=10, combos_left=10)
        core.register(source)
        assert production.try_apply((source,)) is None
        # A rejected combination leaves its components untouched.
        assert core.parents[source.iid] == []
        assert source.alive
        assert source.children == ()
        assert source.coverage == frozenset({0})
