"""GeometryTable vs the scalar predicates: one oracle.

:class:`GeometryTable` is the parser's only geometry primitive, so its
contract is checked directly here, independent of any grammar: ``select``
must equal a plain pool scan through ``h_allows`` / ``v_allows`` (same
IEEE comparisons, same pool order), whether a band's sorted window or the
scan answers it.  Grid coordinates make boundary equalities common;
non-dyadic coordinates make the predicates' subtraction round; rows one
``nextafter`` step from a band's ends pin the window's edges; and NaN and
infinite coordinates must take the scan.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grammar.instance import Instance
from repro.layout.box import BBox
from repro.parser import spatial_index
from repro.parser.spatial_index import GeometryTable, h_allows, v_allows

# Coordinates drawn from a small grid so boundary-equality cases (gap or
# displacement exactly equal to a spec edge) occur often instead of never.
_COORDS = st.integers(min_value=0, max_value=12).map(lambda n: n * 8.0)
_EDGES = st.sampled_from(
    (None, -24.0, -8.0, -4.0, 0.0, 4.0, 8.0, 24.0, 64.0)
)
_RADII = (0.0, 4.0, 16.0, 48.0)

# Non-dyadic coordinates: multiples of 0.1, near 0 or offset near 1e6.
_FINE_OFFSETS = st.sampled_from((0.0, 1e6))
_FINE_STEPS = st.integers(min_value=0, max_value=900)
_FINE_EDGES = st.integers(min_value=-300, max_value=900).map(
    lambda n: n * 0.1
)

_NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def boxes(draw):
    left = draw(_COORDS)
    top = draw(_COORDS)
    width = draw(st.sampled_from((8.0, 24.0, 96.0)))
    height = draw(st.sampled_from((8.0, 16.0, 24.0)))
    return BBox(left, left + width, top, top + height)


@st.composite
def fine_boxes(draw, offset):
    left = offset + draw(_FINE_STEPS) * 0.1
    top = offset + draw(_FINE_STEPS) * 0.1
    width = draw(st.integers(min_value=0, max_value=400)) * 0.1
    height = draw(st.integers(min_value=0, max_value=300)) * 0.1
    return BBox(left, left + width, top, top + height)


@st.composite
def odd_boxes(draw):
    """A grid box with any of its four coordinates NaN or infinite."""
    box = draw(boxes())
    coords = [box.left, box.right, box.top, box.bottom]
    for index in draw(st.sets(st.integers(min_value=0, max_value=3))):
        coords[index] = draw(st.sampled_from(_NON_FINITE))
    return _box(*coords)


def _box(left, right, top, bottom):
    """A BBox from raw coordinates; ``right < left`` pairs are swapped."""
    if right < left:
        left, right = right, left
    if bottom < top:
        top, bottom = bottom, top
    return BBox(left, right, top, bottom)


@st.composite
def axis_specs(draw, edges=_EDGES, kinds=("none", "band", "proximity")):
    """None, a signed (lo, hi) displacement band, or a proximity radius."""
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return None
    if kind == "proximity":
        return draw(st.sampled_from(_RADII))
    return (draw(edges), draw(edges))


@st.composite
def pools(draw, box_strategy=None, max_size=40):
    count = draw(st.integers(min_value=0, max_value=max_size))
    box_strategy = boxes() if box_strategy is None else box_strategy
    return [Instance("Sym", draw(box_strategy)) for _ in range(count)]


def _oracle(pool, checks, combo):
    """The scalar definition of ``select``: a filtered pool scan."""
    selected = []
    for instance in pool:
        ok = True
        for anchor_position, h_spec, v_spec in checks:
            anchor = combo[anchor_position].bbox
            if not (
                h_allows(h_spec, anchor, instance.bbox)
                and v_allows(v_spec, anchor, instance.bbox)
            ):
                ok = False
                break
        if ok:
            selected.append(instance)
    return selected


def _assert_matches_oracle(pool, checks, combo):
    assert GeometryTable(pool).select(checks, combo) == _oracle(
        pool, checks, combo
    )


class TestGeometryTable:
    @given(pools(), boxes(), axis_specs(), axis_specs())
    @settings(max_examples=150, deadline=None)
    def test_select_matches_scalar_oracle(self, pool, anchor_box, h, v):
        _assert_matches_oracle(pool, ((0, h, v),), (Instance("A", anchor_box),))

    @given(pools(), boxes(), boxes(), axis_specs(), axis_specs(),
           axis_specs())
    @settings(max_examples=100, deadline=None)
    def test_select_conjoins_multiple_checks(
        self, pool, box_a, box_b, h1, v1, h2
    ):
        """Two checks against two different anchors AND together."""
        combo = (Instance("A", box_a), Instance("B", box_b))
        _assert_matches_oracle(pool, ((0, h1, v1), (1, h2, None)), combo)

    @given(pools(), boxes(), boxes(), axis_specs(kinds=("band",)),
           axis_specs(kinds=("band",)))
    @settings(max_examples=100, deadline=None)
    def test_two_banded_checks_conjoin(self, pool, box_a, box_b, h, v):
        """The first band picks the window; the second still filters."""
        combo = (Instance("A", box_a), Instance("B", box_b))
        _assert_matches_oracle(pool, ((0, h, None), (1, None, v)), combo)

    @given(pools(), boxes(), boxes(), axis_specs(kinds=("proximity",)),
           axis_specs(kinds=("none", "proximity")))
    @settings(max_examples=60, deadline=None)
    def test_proximity_only_checks_scan_the_pool(
        self, pool, box_a, box_b, h, v
    ):
        combo = (Instance("A", box_a), Instance("B", box_b))
        _assert_matches_oracle(pool, ((0, h, v), (1, v, h)), combo)

    @given(pools())
    @settings(max_examples=20, deadline=None)
    def test_unconstrained_select_returns_whole_pool(self, pool):
        table = GeometryTable(pool)
        anchor = Instance("Anchor", BBox(0.0, 10.0, 0.0, 10.0))
        assert table.select(((0, None, None),), (anchor,)) == pool
        assert len(table) == len(pool)


class TestNonDyadicCoordinates:
    @given(st.data(), _FINE_OFFSETS,
           axis_specs(edges=_FINE_EDGES), axis_specs(edges=_FINE_EDGES))
    @settings(max_examples=150, deadline=None)
    def test_select_matches_scalar_oracle(self, data, offset, h, v):
        pool = data.draw(pools(fine_boxes(offset)))
        anchor = Instance("A", data.draw(fine_boxes(offset)))
        _assert_matches_oracle(pool, ((0, h, v),), (anchor,))

    @given(st.data(), _FINE_OFFSETS,
           axis_specs(edges=_FINE_EDGES, kinds=("band",)),
           axis_specs(edges=_FINE_EDGES))
    @settings(max_examples=100, deadline=None)
    def test_select_conjoins_multiple_checks(self, data, offset, h, v):
        pool = data.draw(pools(fine_boxes(offset)))
        combo = (
            Instance("A", data.draw(fine_boxes(offset))),
            Instance("B", data.draw(fine_boxes(offset))),
        )
        _assert_matches_oracle(pool, ((0, v, h), (1, h, v)), combo)


#: Anchor edges and band ends, all multiples of 0.1, so ``edge + lo``
#: rounds.  Near 0, where the predicates' ``key - edge`` rounds too, a
#: window cut at ``edge + lo`` instead of by that subtraction drops rows
#: one step outside it that the predicate keeps; near 1e6 the subtraction
#: is exact.
_ANCHOR_EDGES = [
    offset + steps * 0.1
    for offset in (0.0, 1e6)
    for steps in (3, 17, 143, 1009, 2777)
]
_BAND_ENDS = [steps * 0.1 for steps in range(-123, 930, 37)]


def _band_end_pool(edge, lo, hi, axis):
    """Rows at ``edge + lo`` and ``edge + hi`` and one step either side,
    plus two far rows, listed in descending coordinate order so that pool
    order is not sorted order."""
    starts = [edge - 1000.0, edge + 5000.0]
    for end in (lo, hi):
        exact = edge + end
        starts += [
            math.nextafter(exact, -math.inf), exact,
            math.nextafter(exact, math.inf),
        ]
    starts.sort(reverse=True)
    if axis == "h":
        return [Instance("Row", BBox(x, x + 5.0, 0.0, 5.0)) for x in starts]
    return [Instance("Row", BBox(0.0, 5.0, y, y + 5.0)) for y in starts]


#: A horizontal band reaching from just left of the anchor's right edge.
_BAND = (-10.0, 250.0)


def _spread_pool(odd_row=None, value=math.nan):
    """Forty rows 100 apart, in descending ``left`` order; row *odd_row*
    gets *value* as its ``left``."""
    pool = []
    for n in reversed(range(40)):
        left = value if n == odd_row else 100.0 * n
        right = math.inf if left == math.inf else 100.0 * n + 8.0
        pool.append(Instance("Row", BBox(left, right, 0.0, 8.0)))
    return pool


def _count_tested(monkeypatch):
    """Record every row :func:`spatial_index.passes` is asked about."""
    tested = []
    real = spatial_index.passes

    def counting(candidate, checks, combo):
        tested.append(candidate)
        return real(candidate, checks, combo)

    monkeypatch.setattr(spatial_index, "passes", counting)
    return tested


class TestBandEnds:
    @pytest.mark.parametrize("axis", ["h", "v"])
    def test_rows_one_step_from_either_end(self, axis):
        """The window keeps exactly the rows the predicate keeps, however
        ``edge + lo`` or ``edge + hi`` rounds."""
        for edge in _ANCHOR_EDGES:
            if axis == "h":
                anchor = Instance("A", BBox(edge - 10.0, edge, 0.0, 5.0))
            else:
                anchor = Instance("A", BBox(0.0, 5.0, edge - 10.0, edge))
            for lo in _BAND_ENDS:
                for hi in _BAND_ENDS:
                    if hi < lo:
                        continue
                    pool = _band_end_pool(edge, lo, hi, axis)
                    check = (0, (lo, hi), None) if axis == "h" else (
                        0, None, (lo, hi)
                    )
                    _assert_matches_oracle(pool, (check,), (anchor,))

    def test_window_tests_only_the_rows_in_the_band(self, monkeypatch):
        """A narrow band over a spread-out pool never scans the pool."""
        tested = _count_tested(monkeypatch)
        anchor = Instance("A", BBox(0.0, 1000.0, 0.0, 8.0))
        selected = GeometryTable(_spread_pool()).select(
            ((0, _BAND, 4.0),), (anchor,)
        )
        assert [instance.bbox.left for instance in selected] == [
            1200.0, 1100.0, 1000.0,
        ]
        assert tested == selected


class TestNonFiniteCoordinates:
    def test_nan_left_passes_proximity_as_the_scan_does(self):
        """``horizontal_gap`` reads a NaN ``left`` as overlap (gap 0)."""
        pool = [
            Instance("Row", BBox(math.nan, 10.0, 0.0, 5.0)),
            Instance("Row", BBox(12.0, 20.0, 0.0, 5.0)),
            Instance("Row", BBox(2.0, 9.0, 0.0, 5.0)),
        ]
        anchor = Instance("A", BBox(0.0, 10.0, 0.0, 5.0))
        checks = ((0, 4.0, None),)
        assert GeometryTable(pool).select(checks, (anchor,)) == pool
        _assert_matches_oracle(pool, checks, (anchor,))

    @pytest.mark.parametrize("value", _NON_FINITE)
    def test_non_finite_row_on_the_banded_axis_scans_the_pool(
        self, value, monkeypatch
    ):
        tested = _count_tested(monkeypatch)
        pool = _spread_pool(odd_row=17, value=value)
        anchor = Instance("A", BBox(0.0, 1000.0, 0.0, 8.0))
        checks = ((0, _BAND, None),)
        assert GeometryTable(pool).select(checks, (anchor,)) == _oracle(
            pool, checks, (anchor,)
        )
        assert tested == pool

    @pytest.mark.parametrize("edge", _NON_FINITE)
    def test_non_finite_anchor_edge_scans_the_pool(self, edge, monkeypatch):
        tested = _count_tested(monkeypatch)
        pool = _spread_pool()
        anchor = Instance("A", BBox(min(0.0, edge), edge, 0.0, 8.0))
        checks = ((0, _BAND, None),)
        assert GeometryTable(pool).select(checks, (anchor,)) == _oracle(
            pool, checks, (anchor,)
        )
        assert tested == pool

    @given(pools(odd_boxes()), st.one_of(boxes(), odd_boxes()),
           axis_specs(), axis_specs())
    @settings(max_examples=150, deadline=None)
    def test_non_finite_rows_match_scalar_oracle(self, pool, anchor_box, h, v):
        _assert_matches_oracle(pool, ((0, h, v),), (Instance("A", anchor_box),))

    @given(pools(), odd_boxes(), axis_specs(kinds=("band",)),
           axis_specs(kinds=("band",)))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_anchor_matches_scalar_oracle(
        self, pool, anchor_box, h, v
    ):
        _assert_matches_oracle(pool, ((0, h, v),), (Instance("A", anchor_box),))
