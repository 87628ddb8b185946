"""GeometryTable vs the scalar predicates: one oracle.

The columnar :class:`GeometryTable` is the parser's only geometry
primitive, so its contract is checked directly here, independent of any
grammar: ``select`` must equal a plain pool scan through ``h_allows`` /
``v_allows`` (same IEEE comparisons, same pool order), and the batched
``select_rows`` must equal ``select`` called once per anchor.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grammar.instance import Instance
from repro.layout.box import BBox
from repro.parser.spatial_index import GeometryTable, h_allows, v_allows

# Coordinates drawn from a small grid so boundary-equality cases (gap or
# displacement exactly equal to a spec edge) occur often instead of never.
_COORDS = st.integers(min_value=0, max_value=12).map(lambda n: n * 8.0)
_EDGES = st.sampled_from(
    (None, -24.0, -8.0, -4.0, 0.0, 4.0, 8.0, 24.0, 64.0)
)


@st.composite
def boxes(draw):
    left = draw(_COORDS)
    top = draw(_COORDS)
    width = draw(st.sampled_from((8.0, 24.0, 96.0)))
    height = draw(st.sampled_from((8.0, 16.0, 24.0)))
    return BBox(left, left + width, top, top + height)


@st.composite
def axis_specs(draw):
    """None, a signed (lo, hi) displacement band, or a proximity radius."""
    kind = draw(st.sampled_from(("none", "band", "proximity")))
    if kind == "none":
        return None
    if kind == "proximity":
        return draw(st.sampled_from((0.0, 4.0, 16.0, 48.0)))
    return (draw(_EDGES), draw(_EDGES))


@st.composite
def pools(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    return [Instance("Sym", draw(boxes())) for _ in range(count)]


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


class TestGeometryTable:
    @given(pools(), boxes(), axis_specs(), axis_specs())
    @settings(max_examples=120, deadline=None)
    def test_select_matches_scalar_oracle(self, pool, anchor_box, h, v):
        table = GeometryTable(pool)
        anchor = Instance("Anchor", anchor_box)
        checks = ((0, h, v),)
        assert table.select(checks, (anchor,)) == _oracle(
            pool, checks, (anchor,)
        )

    @given(pools(), boxes(), boxes(), axis_specs(), axis_specs(),
           axis_specs())
    @settings(max_examples=80, deadline=None)
    def test_select_conjoins_multiple_checks(
        self, pool, box_a, box_b, h1, v1, h2
    ):
        """Two checks against two different anchors AND together."""
        table = GeometryTable(pool)
        combo = (Instance("A", box_a), Instance("B", box_b))
        checks = ((0, h1, v1), (1, h2, None))
        assert table.select(checks, combo) == _oracle(pool, checks, combo)

    @given(pools(), st.lists(boxes(), min_size=0, max_size=6),
           axis_specs(), axis_specs())
    @settings(max_examples=80, deadline=None)
    def test_select_rows_matches_per_anchor_select(
        self, pool, anchor_boxes, h, v
    ):
        """``select_rows`` is exactly ``select`` mapped over the anchors."""
        table = GeometryTable(pool)
        anchors = [Instance("Anchor", box) for box in anchor_boxes]
        checks = ((0, h, v),)
        batched = table.select_rows(checks, anchors)
        assert len(batched) == len(anchors)
        for anchor, selected in zip(anchors, batched):
            assert selected == table.select(checks, (anchor,))

    @given(pools(), st.lists(boxes(), min_size=0, max_size=6),
           axis_specs(), axis_specs(), axis_specs(), axis_specs())
    @settings(max_examples=80, deadline=None)
    def test_select_rows_conjoins_checks_on_the_shared_anchor(
        self, pool, anchor_boxes, h1, v1, h2, v2
    ):
        """Two checks on anchor position 0 AND together in every row."""
        table = GeometryTable(pool)
        anchors = [Instance("Anchor", box) for box in anchor_boxes]
        checks = ((0, h1, v1), (0, h2, v2))
        assert table.select_rows(checks, anchors) == [
            _oracle(pool, checks, (anchor,)) for anchor in anchors
        ]

    @given(pools())
    @settings(max_examples=20, deadline=None)
    def test_unconstrained_select_returns_whole_pool(self, pool):
        table = GeometryTable(pool)
        anchor = Instance("Anchor", BBox(0.0, 10.0, 0.0, 10.0))
        assert table.select(((0, None, None),), (anchor,)) == pool
        assert len(table) == len(pool)

    @given(pools(), st.lists(boxes(), min_size=0, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_unconstrained_select_rows_returns_whole_pool_per_anchor(
        self, pool, anchor_boxes
    ):
        table = GeometryTable(pool)
        anchors = [Instance("Anchor", box) for box in anchor_boxes]
        assert table.select_rows(((0, None, None),), anchors) == (
            [pool] * len(anchors)
        )
