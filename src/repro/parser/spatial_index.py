"""The sorted window behind spatial pre-filtering.

Every spatial relation of the grammar implies *adjacency* (paper Section
4.1), so a production annotated with declarative bounds (see
:mod:`repro.grammar.production`) only ever combines instances that sit
within a bounded envelope of each other.  :class:`GeometryTable` exploits
that set-at-a-time with the standard library's :mod:`bisect`: a pool's
rows are sorted once on ``left`` and once on ``top``, so a two-sided
displacement band narrows the pool to the window of rows whose
displacement falls inside it, and only that window is tested.

The scalar predicates :func:`h_allows` / :func:`v_allows`, conjoined by
:func:`passes`, define and decide every selection: the window only skips
rows the band would reject, and hits come back in ``uid`` (pool) order,
so a production constraint is never starved of a combination it would
accept and enumeration order is identical whether a pool is filtered
through the table or scanned.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Sequence

from repro.grammar.instance import Instance
from repro.grammar.production import AxisSpec
from repro.layout.box import BBox

if TYPE_CHECKING:  # pragma: no cover - typing only
    TargetCheck = tuple[int, AxisSpec, AxisSpec]
    #: Sorted coordinates of one axis and the rows they belong to.
    Order = tuple[list[float], list[int]]

#: Pools smaller than this are cheaper to scan than to index.
MIN_INDEXED_POOL = 8


# -- scalar axis predicates ---------------------------------------------------


def h_allows(spec: AxisSpec, anchor: BBox, candidate: BBox) -> bool:
    """Does *candidate* satisfy the horizontal axis *spec* against *anchor*?

    *anchor* is the earlier component (position ``i``), *candidate* the
    later one (position ``j``); see ``AxisSpec`` for the spec forms.
    """
    if spec is None:
        return True
    if type(spec) is tuple:
        displacement = candidate.left - anchor.right
        lo, hi = spec
        if lo is not None and displacement < lo:
            return False
        return hi is None or displacement <= hi
    return anchor.horizontal_gap(candidate) <= spec


def v_allows(spec: AxisSpec, anchor: BBox, candidate: BBox) -> bool:
    """Vertical-axis counterpart of :func:`h_allows`."""
    if spec is None:
        return True
    if type(spec) is tuple:
        displacement = candidate.top - anchor.bottom
        lo, hi = spec
        if lo is not None and displacement < lo:
            return False
        return hi is None or displacement <= hi
    return anchor.vertical_gap(candidate) <= spec


def passes(
    candidate: Instance,
    checks: "tuple[TargetCheck, ...]",
    combo: Sequence[Instance],
) -> bool:
    """Does *candidate* satisfy every axis-envelope check of *checks*?"""
    box = candidate.bbox
    for anchor, h_spec, v_spec in checks:
        other = combo[anchor].bbox
        if not h_allows(h_spec, other, box):
            return False
        if not v_allows(v_spec, other, box):
            return False
    return True


# -- the sorted window --------------------------------------------------------


def _band(spec: AxisSpec) -> "tuple[float, float] | None":
    """*spec* as a two-sided displacement band ``(lo, hi)``, or ``None``."""
    if type(spec) is tuple:
        lo, hi = spec
        if lo is not None and hi is not None:
            return lo, hi
    return None


class GeometryTable:
    """One symbol's frozen instance pool, sorted on demand per axis.

    Rows are the pool's instances in pool (``uid``) order.  The first
    query that bands an axis sorts the rows on that axis's near edge
    (``left`` for horizontal displacement, ``top`` for vertical), and
    every later query against the pool reuses the order.
    """

    __slots__ = ("instances", "_orders")

    def __init__(self, instances: list[Instance]) -> None:
        self.instances = instances
        self._orders: dict[str, "Order | None"] = {}

    def __len__(self) -> int:
        return len(self.instances)

    def _order(self, edge: str) -> "Order | None":
        """The rows sorted on their *edge* coordinate, with the sorted
        coordinates; ``None`` if one is not finite (NaN does not sort)."""
        if edge in self._orders:
            return self._orders[edge]
        keys = [getattr(instance.bbox, edge) for instance in self.instances]
        order: "Order | None" = None
        if all(map(math.isfinite, keys)):
            rows = sorted(range(len(keys)), key=keys.__getitem__)
            order = ([keys[row] for row in rows], rows)
        self._orders[edge] = order
        return order

    def select(
        self,
        checks: "tuple[TargetCheck, ...]",
        combo: Sequence[Instance],
    ) -> list[Instance]:
        """Pool members passing every ``(anchor, h_spec, v_spec)`` check.

        *combo* supplies the already-bound anchor instances by position.
        Equal to filtering the pool through :func:`passes`: the first
        two-sided displacement band ``(lo, hi)`` in *checks* bisects its
        axis to the rows whose displacement from the anchor lies in the
        band, and :func:`passes` decides each of those.  Without such a
        band, or when a coordinate on its axis or the anchor's edge is
        not finite, the whole pool is scanned.  Results keep pool
        (``uid``) order.
        """
        instances = self.instances
        for anchor_position, h_spec, v_spec in checks:
            anchor = combo[anchor_position].bbox
            band = _band(h_spec)
            if band is not None:
                order, edge = self._order("left"), anchor.right
            else:
                band = _band(v_spec)
                if band is None:
                    continue
                order, edge = self._order("top"), anchor.bottom
            if order is None or not math.isfinite(edge):
                break
            keys, rows = order
            lo, hi = band

            def displacement(key: float) -> float:
                # The predicates' own subtraction, monotone in *key*, so
                # the window's ends are exact without an epsilon.
                return key - edge

            start = bisect_left(keys, lo, key=displacement)
            stop = bisect_right(keys, hi, start, key=displacement)
            window = sorted(rows[start:stop])
            return [
                instances[row] for row in window
                if passes(instances[row], checks, combo)
            ]
        return [
            instance for instance in instances
            if passes(instance, checks, combo)
        ]
