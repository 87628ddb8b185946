"""Tests for preferences ⟨I, U, W⟩."""

from repro.grammar.instance import Instance
from repro.grammar.preference import (
    Preference,
    covers_more,
    shares,
    subsumes,
    tighter,
)
from repro.grammar.production import Production
from tests.conftest import make_token


def text_instance(token_id, left=0.0):
    return Instance.for_token(make_token(token_id, "text", left, 0.0))


def wrap(symbol, *leaves):
    production = Production(head=symbol, components=("text",) * len(leaves))
    result = production.try_apply(tuple(leaves))
    assert result is not None
    return result


class TestPredicates:
    def test_subsumes_strict(self):
        shared = text_instance(0)
        extra = text_instance(1, 100)
        big = wrap("A", shared, extra)
        small = wrap("B", shared)
        assert subsumes(big, small)
        assert not subsumes(small, big)
        assert not subsumes(big, big)

    def test_covers_more(self):
        big = wrap("A", text_instance(0), text_instance(1, 100))
        small = wrap("B", text_instance(2, 300))
        assert covers_more(big, small)
        assert not covers_more(small, big)

    def test_shares_holds_when_some_key_has_one_value(self):
        condition = shares("attr_uid", "val_uid")
        first = text_instance(0)
        second = text_instance(1, 100)
        first.payload.update(attr_uid=7, val_uid=None)
        second.payload.update(attr_uid=8, val_uid=None)
        assert not condition(first, second)  # None is no shared component
        second.payload["attr_uid"] = 7
        assert condition(first, second)  # the first key
        second.payload.update(attr_uid=8, val_uid=3)
        first.payload["val_uid"] = 3
        assert condition(first, second)  # the second key
        assert not shares("op_uid")(first, second)

    def test_tighter_prefers_smaller_spread(self):
        close = wrap("A", text_instance(0, 0), text_instance(1, 70))
        spread = wrap("B", text_instance(2, 0), text_instance(3, 500))
        assert tighter(close, spread)
        assert not tighter(spread, close)


class TestPreferenceApplication:
    def test_auto_name(self):
        assert Preference("RBU", "Attr").name == "RBU>Attr"

    def test_applies_on_conflict(self):
        shared = text_instance(0)
        winner = wrap("RBU", shared)
        loser = wrap("Attr", shared)
        preference = Preference("RBU", "Attr")
        assert preference.applies(winner, loser)

    def test_wrong_symbols_do_not_apply(self):
        shared = text_instance(0)
        winner = wrap("RBU", shared)
        loser = wrap("Attr", shared)
        preference = Preference("CBU", "Attr")
        assert not preference.applies(winner, loser)

    def test_no_conflict_no_application(self):
        winner = wrap("RBU", text_instance(0))
        loser = wrap("Attr", text_instance(1, 200))
        assert not Preference("RBU", "Attr").applies(winner, loser)

    def test_ancestry_never_applies(self):
        leaf = text_instance(0)
        inner = wrap("RBList", leaf)
        outer = Production(
            head="RBList", components=("RBList",)
        ).try_apply((inner,))
        preference = Preference("RBList", "RBList", condition=subsumes)
        assert not preference.applies(outer, inner)

    def test_condition_gates(self):
        shared = text_instance(0)
        first = wrap("RBList", shared)
        second = wrap("RBList", shared)
        preference = Preference("RBList", "RBList", condition=subsumes)
        # Equal coverage: subsumption is strict, so no application.
        assert not preference.applies(first, second)

    def test_criteria_gates(self):
        shared = text_instance(0)
        extra = text_instance(1, 80)
        big = wrap("L", shared, extra)
        small_production = Production(head="L", components=("text",))
        small = small_production.try_apply((shared,))
        preference = Preference(
            "L", "L", condition=subsumes, criteria=lambda a, b: False
        )
        assert not preference.applies(big, small)

    def test_str(self):
        assert "prefer RBU over Attr" in str(Preference("RBU", "Attr"))
