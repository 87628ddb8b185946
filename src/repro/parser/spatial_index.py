"""The columnar geometry kernel behind spatial pre-filtering.

Every spatial relation of the grammar implies *adjacency* (paper Section
4.1), so a production annotated with declarative bounds (see
:mod:`repro.grammar.production`) only ever combines instances that sit
within a bounded envelope of each other.  :class:`GeometryTable` exploits
that set-at-a-time: a pool's bounding boxes are held as parallel numpy
coordinate columns (``left``/``right``/``top``/``bottom``, one row per
instance, row ids stable by construction), so a production's whole
interval conjunction evaluates as a handful of vectorized comparisons
producing one boolean mask over the entire pool instead of N Python
predicate calls.

The scalar predicates :func:`h_allows` / :func:`v_allows` define what the
masks compute: a row passes iff the predicate accepts its instance, and
selections come back in ``uid`` (pool) order, so a production constraint
is never starved of a combination it would accept and enumeration order
is identical whether a pool is filtered through the table or scanned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy

from repro.grammar.instance import Instance
from repro.grammar.production import AxisSpec
from repro.layout.box import BBox

if TYPE_CHECKING:  # pragma: no cover - typing only
    TargetCheck = tuple[int, AxisSpec, AxisSpec]

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


# -- the vectorized geometry table --------------------------------------------


class GeometryTable:
    """Columnar numpy geometry for one symbol's frozen instance pool.

    One row per instance, in pool (``uid``) order; four float64 columns
    ``left``/``right``/``top``/``bottom``.  A production's spatial checks
    against a fixed candidate pool evaluate as vectorized interval
    comparisons producing one boolean mask per axis spec; the conjunction
    is materialized back to instances via the stable row ids, preserving
    pool order exactly.
    """

    __slots__ = ("instances", "left", "right", "top", "bottom")

    def __init__(self, instances: list[Instance]) -> None:
        self.instances = instances
        count = len(instances)
        left = numpy.empty(count, dtype=numpy.float64)
        right = numpy.empty(count, dtype=numpy.float64)
        top = numpy.empty(count, dtype=numpy.float64)
        bottom = numpy.empty(count, dtype=numpy.float64)
        for row, instance in enumerate(instances):
            box = instance.bbox
            left[row] = box.left
            right[row] = box.right
            top[row] = box.top
            bottom[row] = box.bottom
        self.left = left
        self.right = right
        self.top = top
        self.bottom = bottom

    def __len__(self) -> int:
        return len(self.instances)

    # Each mask method mirrors the scalar predicate exactly (same IEEE
    # comparisons in the same orientation), so a row passes the mask iff
    # the scalar predicate accepts the corresponding instance.  The anchor
    # coordinates may be Python floats (one anchor -> a length-C mask) or
    # ``(A, 1)`` column vectors (a whole anchor pool -> an ``A x C`` mask
    # matrix); numpy broadcasting handles both identically.

    def _h_mask(self, spec: AxisSpec, a_left: Any, a_right: Any) -> Any:
        if type(spec) is tuple:
            displacement = self.left - a_right
            lo, hi = spec
            if lo is None:
                if hi is None:  # degenerate (None, None): unconstrained
                    return numpy.ones(numpy.shape(displacement), dtype=bool)
                return displacement <= hi
            mask = displacement >= lo
            if hi is not None:
                mask &= displacement <= hi
            return mask
        gap = numpy.maximum(self.left - a_right, a_left - self.right)
        numpy.maximum(gap, 0.0, out=gap)
        return gap <= spec

    def _v_mask(self, spec: AxisSpec, a_top: Any, a_bottom: Any) -> Any:
        if type(spec) is tuple:
            displacement = self.top - a_bottom
            lo, hi = spec
            if lo is None:
                if hi is None:  # degenerate (None, None): unconstrained
                    return numpy.ones(numpy.shape(displacement), dtype=bool)
                return displacement <= hi
            mask = displacement >= lo
            if hi is not None:
                mask &= displacement <= hi
            return mask
        gap = numpy.maximum(self.top - a_bottom, a_top - self.bottom)
        numpy.maximum(gap, 0.0, out=gap)
        return gap <= spec

    def select(
        self,
        checks: "tuple[TargetCheck, ...]",
        combo: "Sequence[Instance | None]",
    ) -> list[Instance]:
        """Pool members passing every ``(anchor, h_spec, v_spec)`` check.

        *combo* supplies the already-bound anchor instances by position.
        Equivalent to filtering the pool through :func:`h_allows` /
        :func:`v_allows` for every check, in one vectorized pass; results
        keep pool (``uid``) order.
        """
        mask: Any = None
        for anchor_position, h_spec, v_spec in checks:
            anchor_instance = combo[anchor_position]
            assert anchor_instance is not None
            anchor = anchor_instance.bbox
            if h_spec is not None:
                h_mask = self._h_mask(h_spec, anchor.left, anchor.right)
                mask = h_mask if mask is None else mask & h_mask
            if v_spec is not None:
                v_mask = self._v_mask(v_spec, anchor.top, anchor.bottom)
                mask = v_mask if mask is None else mask & v_mask
        if mask is None:
            return self.instances
        instances = self.instances
        return [instances[row] for row in numpy.flatnonzero(mask)]

    def select_rows(
        self,
        checks: "tuple[TargetCheck, ...]",
        anchors: "Sequence[Instance]",
    ) -> list[list[Instance]]:
        """Batched :meth:`select`: one selection list per anchor.

        All *checks* must reference the same anchor position, bound to the
        instances of *anchors* in turn (the binary-production case, where
        every check anchors on component 0).  The whole ``A x C`` mask
        matrix is computed in one broadcast pass, amortizing the fixed
        per-call numpy cost over the entire anchor pool -- the batching
        that makes vectorization viable on the small per-form pools this
        parser sees.  ``result[row]`` equals ``select(checks, <anchors[row]>)``,
        element for element.
        """
        count = len(anchors)
        a_left = numpy.empty((count, 1), dtype=numpy.float64)
        a_right = numpy.empty((count, 1), dtype=numpy.float64)
        a_top = numpy.empty((count, 1), dtype=numpy.float64)
        a_bottom = numpy.empty((count, 1), dtype=numpy.float64)
        for row, anchor in enumerate(anchors):
            box = anchor.bbox
            a_left[row, 0] = box.left
            a_right[row, 0] = box.right
            a_top[row, 0] = box.top
            a_bottom[row, 0] = box.bottom
        mask: Any = None
        for _, h_spec, v_spec in checks:
            if h_spec is not None:
                h_mask = self._h_mask(h_spec, a_left, a_right)
                mask = h_mask if mask is None else mask & h_mask
            if v_spec is not None:
                v_mask = self._v_mask(v_spec, a_top, a_bottom)
                mask = v_mask if mask is None else mask & v_mask
        if mask is None:
            return [self.instances] * count
        result: list[list[Instance]] = [[] for _ in range(count)]
        instances = self.instances
        rows, cols = numpy.nonzero(mask)
        # ``nonzero`` walks the matrix row-major, so columns come out
        # ascending within each row -- pool (uid) order, as required.
        for row, col in zip(rows.tolist(), cols.tolist()):
            result[row].append(instances[col])
        return result
