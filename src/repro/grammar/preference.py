"""Preferences: ``⟨I, U, W⟩`` (paper Definition 3).

A preference resolves one kind of ambiguity between two instance types by
giving priority to one over the other:

* ``I = ⟨v1: winner_symbol, v2: loser_symbol⟩`` -- the conflicting types;
* ``U(v1, v2)`` -- the *conflicting condition*: when does this preference
  apply (beyond the framework-level requirement that the instances compete
  for at least one token);
* ``W(v1, v2)`` -- the *winning criteria*: when they hold, ``v1`` is
  arbitrated the winner and ``v2`` is invalidated.

Example (paper Example 4): when an ``RBU`` instance and an ``Attr`` instance
conflict on a text token, the ``RBU`` wins unconditionally; when two
``RBList`` instances conflict and one subsumes the other, the longer wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.grammar.instance import Instance

#: Binary predicates over (winner-candidate, loser-candidate).
Predicate = Callable[[Instance, Instance], bool]


def always(_v1: Instance, _v2: Instance) -> bool:
    """The trivially-true condition/criterion."""
    return True


def subsumes(v1: Instance, v2: Instance) -> bool:
    """True when v1's token coverage strictly contains v2's."""
    return v1.coverage > v2.coverage


def shares(*keys: str) -> Predicate:
    """Conflict condition: both instances hold one component instance.

    Holds when, for some payload key of *keys*, both payloads carry the
    same non-``None`` value -- by convention the ``uid`` of a component
    (``"attr_uid"``, ``"val_uid"``, ...).
    """

    def _condition(v1: Instance, v2: Instance) -> bool:
        first_payload = v1.payload
        second_payload = v2.payload
        for key in keys:
            first = first_payload.get(key)
            if first is not None and first == second_payload.get(key):
                return True
        return False

    return _condition


def covers_more(v1: Instance, v2: Instance) -> bool:
    """True when v1 covers strictly more tokens than v2."""
    return len(v1.coverage) > len(v2.coverage)


def tighter(v1: Instance, v2: Instance) -> bool:
    """True when v1's components sit closer together than v2's."""
    return _spread(v1) < _spread(v2)


def _spread(instance: Instance) -> float:
    children = instance.children
    if len(children) < 2:
        return 0.0
    total = 0.0
    for first, second in zip(children, children[1:]):
        total += first.bbox.gap(second.bbox)
    return total


@dataclass(frozen=True)
class Preference:
    """One preference rule of the 2P grammar."""

    winner_symbol: str
    loser_symbol: str
    condition: Predicate = always
    criteria: Predicate = always
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.winner_symbol}>{self.loser_symbol}"
            )

    def applies(self, winner: Instance, loser: Instance) -> bool:
        """True when *winner* should invalidate *loser* under this rule.

        The framework-level conflict requirement (shared token, neither an
        ancestor of the other) is checked here too, so callers can pass any
        candidate pair.
        """
        if winner.symbol != self.winner_symbol or loser.symbol != self.loser_symbol:
            return False
        if not winner.conflicts_with(loser):
            return False
        return self.condition(winner, loser) and self.criteria(winner, loser)

    def __str__(self) -> str:
        return f"{self.name}: prefer {self.winner_symbol} over {self.loser_symbol}"
