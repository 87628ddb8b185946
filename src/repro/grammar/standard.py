"""The derived global 2P grammar.

This grammar plays the role of the paper's grammar "derived from the Basic
dataset" (Section 6): it declaratively captures the condition patterns that
recur across Web query interfaces -- the paper found 21 more-than-once
patterns across 150 sources -- plus the form-assembly patterns that stack
condition patterns into rows (``HQI``) and rows into a query interface
(``QI``), and the preferences that arbitrate their conflicts.

Pattern inventory (the number references the catalog in
:mod:`repro.datasets.patterns`):

====  =======================================================================
 #    pattern
====  =======================================================================
 1    ``TextVal``-left:   attribute left of a textbox
 2    ``TextVal``-above:  attribute above a textbox
 3    ``TextVal``-below:  attribute below a textbox (rare)
 4    ``TextOp``-below:   attribute + textbox + radio operator list below
 5    ``TextOp``-right:   attribute + textbox + radio operator list right
 6    ``TextOpSel``-mid:  attribute + operator select + textbox in a row
 7    ``TextOpSel``-below: attribute + textbox + operator select below
 8    ``SelCP``-left:     attribute left of a selection list
 9    ``SelCP``-above:    attribute above a selection list
10    ``EnumRB``-labeled: attribute + radio-button list
11    ``EnumRB``-bare:    radio-button list standing alone
12    ``EnumCB``-labeled: attribute + checkbox list
13    ``EnumCB``-bare:    checkbox (list) standing alone
14    ``RangeCP``-text:   attribute + from/to textboxes
15    ``RangeCP``-seltext: textbox range stacked on two rows
16    ``RangeCP``-sel:    attribute + from/to selection lists
17    ``RangeCP``-selpair: two selects joined by a range mark ("to", "-")
18    ``DateCP``-3:       attribute + month/day/year selects
19    ``DateCP``-2:       attribute + two date-part selects
20    ``BareVal``:        lone keyword textbox
21    ``TextValUnit``:    attribute + textbox + trailing unit text
====  =======================================================================

Preferences mirror the paper's examples: a radio/checkbox unit binds its
label more tightly than an attribute reading does (R1); longer lists beat
the shorter lists they subsume (R2); and between conflicting composite
interpretations, the one covering more of the form wins.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.grammar.dsl import GrammarBuilder
from repro.grammar.grammar import TwoPGrammar
from repro.grammar.instance import Instance
from repro.grammar.preference import shares, subsumes
from repro.grammar.production import SpatialBound
from repro.grammar.text_heuristics import (
    clean_label,
    date_signature,
    is_attribute_like,
    is_operator_select,
    is_range_mark,
    is_unit_text,
    split_attr_mark,
)
from repro.semantics.condition import Condition, Domain
from repro.spatial import SpatialConfig, above, below, left_of
from repro.spatial.relations import DEFAULT_SPATIAL

#: Radio/checkbox labels hug their widget; a tighter gap than general
#: label-to-field adjacency.
_UNIT_SPATIAL = SpatialConfig(max_horizontal_gap=18.0)

#: An attribute written *above* its field sits on the directly preceding
#: line; page headings and blurbs float farther away and must not qualify.
_ATTR_ABOVE_SPATIAL = SpatialConfig(max_vertical_gap=11.0)

#: Pieces *within* one condition (a range mark and its field, an operator
#: select and its textbox, chained date selects) sit a word apart at most.
#: Only the label-to-field hop may span a table column's alignment gap.
_VALUE_SPATIAL = SpatialConfig(max_horizontal_gap=30.0)

#: Assembly tolerances: rows can be far apart vertically (section spacing)
#: and items far apart horizontally (column layouts).
_ROW_GAP = 360.0
_STACK_GAP = 90.0

#: Slack added to every declared spatial bound so the declarative envelope
#: stays strictly looser than the constraint it pre-filters for (bounds
#: must be conservative: never exclude a combination the constraint
#: accepts).
_BOUND_SLACK = 2.0


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def _attr_label(attr: Instance) -> str:
    return str(attr.payload.get("attribute", ""))


def _fields(*instances: Instance) -> tuple[str, ...]:
    fields: list[str] = []
    for instance in instances:
        fields.extend(instance.payload.get("fields", ()))
    return tuple(fields)


def _cp(
    attribute: str,
    operators: tuple[str, ...],
    domain: Domain,
    fields: tuple[str, ...],
    arrangement: str = "bare",
    attr: Instance | None = None,
    val: Instance | None = None,
    op: Instance | None = None,
    operator_bindings: tuple[tuple[str, str, str], ...] = (),
    value_bindings: tuple[tuple[str, str, str], ...] = (),
    field_roles: tuple[tuple[str, str], ...] = (),
) -> dict[str, Any]:
    """CP payload: the condition plus binding metadata for preferences.

    ``arrangement`` records how the attribute attaches (``left``/``above``/
    ``below``/``bare``); the ``*_uid`` keys identify shared component
    instances so preferences can detect two CPs competing for the same
    attribute, value, or operator group, and ``op_gap`` measures how far an
    operator group sits from its value field (the tighter binding wins).
    """
    payload: dict[str, Any] = {
        "condition": Condition(
            attribute=attribute,
            operators=operators,
            domain=domain,
            fields=fields,
            operator_bindings=operator_bindings,
            value_bindings=value_bindings,
            field_roles=field_roles,
        ),
        "arrangement": arrangement,
    }
    if attr is not None:
        payload["attr_uid"] = attr.uid
    if val is not None:
        payload["val_uid"] = val.uid
    if attr is not None and val is not None:
        # The attribute binds to whichever claimed component it touches:
        # in "Artist: [op-select] [textbox]" that is the operator select.
        anchors = [val.payload.get("head_box") or val.bbox]
        if op is not None:
            anchors.append(op.bbox)
        payload["attr_gap"] = min(attr.bbox.gap(a) for a in anchors)
    if op is not None:
        payload["op_uid"] = op.uid
        if val is not None:
            payload["op_gap"] = val.bbox.gap(op.bbox)
    return payload


def _tighter_binding(v1: Instance, v2: Instance) -> bool:
    """Winning criterion for two CPs competing for a shared component.

    Horizontal (left) attachment beats vertical (above/below) attachment;
    between two attachments of the same orientation, the closer one wins.
    """
    first = v1.payload.get("arrangement")
    second = v2.payload.get("arrangement")
    if first == "left" and second in ("above", "below"):
        return True
    if first != second:
        return False
    gap1 = v1.payload.get("attr_gap")
    gap2 = v2.payload.get("attr_gap")
    return gap1 is not None and gap2 is not None and gap1 < gap2


def _tighter_op(v1: Instance, v2: Instance) -> bool:
    """Winning criterion: the operator group bound closer to its field."""
    first = v1.payload.get("op_gap")
    second = v2.payload.get("op_gap")
    return first is not None and second is not None and first < second


# ---------------------------------------------------------------------------
# assembly relations (more permissive than token-level adjacency)
# ---------------------------------------------------------------------------


def _row_chain(left: Instance, right: Instance) -> bool:
    """*left* precedes *right* on one visual row of the form."""
    a, b = left.bbox, right.bbox
    if a.right > b.left + 8.0:
        return False
    if b.left - a.right > _ROW_GAP:
        return False
    return a.vertical_overlap(b) > 0 or abs(a.center_y - b.center_y) <= 12.0


def _stack(upper: Instance, lower: Instance) -> bool:
    """*upper* sits above *lower* in the top-down form reading order."""
    a, b = upper.bbox, lower.bbox
    if a.bottom > b.top + 10.0:
        return False
    return b.top - a.bottom <= _STACK_GAP


# ---------------------------------------------------------------------------
# grammar definition
# ---------------------------------------------------------------------------


def build_standard_grammar(spatial: SpatialConfig = DEFAULT_SPATIAL) -> TwoPGrammar:
    """Build the derived global grammar.

    Args:
        spatial: Adjacency thresholds used by the token-level relations.

    Returns:
        A validated :class:`TwoPGrammar` whose start symbol is ``QI``.
    """
    return standard_builder(spatial).build()


def standard_builder(spatial: SpatialConfig = DEFAULT_SPATIAL) -> GrammarBuilder:
    """The standard grammar as an open :class:`GrammarBuilder`.

    Pattern specification is declarative and extensible (paper Section
    3.2): callers can add productions and preferences for new conventions
    before calling ``build()``, leaving the parsing machinery untouched.
    The quickest extension point is another ``CP`` production -- the new
    pattern then participates in row/interface assembly automatically.
    """
    g = GrammarBuilder(start="QI", name="standard-2P")
    g.terminals(
        "text", "textbox", "password", "textarea", "selectlist", "listbox",
        "radiobutton", "checkbox", "submitbutton", "resetbutton",
        "pushbutton", "imagebutton", "filebox", "image", "hiddenfield",
        "hrule",
    )

    def L(a: Instance, b: Instance) -> bool:
        return left_of(a.bbox, b.bbox, spatial)

    def A(a: Instance, b: Instance) -> bool:
        return above(a.bbox, b.bbox, spatial)

    def B(a: Instance, b: Instance) -> bool:
        return below(a.bbox, b.bbox, spatial)

    def AttrA(a: Instance, b: Instance) -> bool:
        """Attribute-above-field: tighter vertical adjacency than A."""
        return above(a.bbox, b.bbox, _ATTR_ABOVE_SPATIAL)

    def AttrB(a: Instance, b: Instance) -> bool:
        """Attribute-below-field: tighter vertical adjacency."""
        return below(a.bbox, b.bbox, _ATTR_ABOVE_SPATIAL)

    def TL(a: Instance, b: Instance) -> bool:
        """Tight left-adjacency for pieces within one condition."""
        return left_of(a.bbox, b.bbox, _VALUE_SPATIAL)

    # Conservative per-axis envelopes for the relations above (see
    # ``Production.bounds``).  ``left_of(a, b)`` pins the *signed*
    # displacement ``b.left - a.right`` into ``[-tolerance, reach]`` (b
    # starts where a ends, modulo the overlap tolerance) and implies
    # same-row (vertical gap zero); ``above(a, b)`` is the transposed
    # statement.  Signed intervals encode the ordering, which is what
    # eliminates the bulk of the cartesian product.
    def row_bound(
        i: int, j: int, config: SpatialConfig = spatial
    ) -> SpatialBound:
        """Envelope of a ``left_of``-style constraint between i and j."""
        reach = (
            -(config.alignment_tolerance + _BOUND_SLACK),
            config.max_horizontal_gap + _BOUND_SLACK,
        )
        return (i, j, reach, _BOUND_SLACK)

    def col_bound(
        i: int, j: int, config: SpatialConfig = spatial
    ) -> SpatialBound:
        """Envelope of an ``above``-style constraint (i above j)."""
        reach = (
            -(config.alignment_tolerance + _BOUND_SLACK),
            config.max_vertical_gap + _BOUND_SLACK,
        )
        return (i, j, _BOUND_SLACK, reach)

    # -- leaf roles ---------------------------------------------------------

    g.production(
        "Attr", ["text"],
        constraint=lambda tx: is_attribute_like(tx.payload.get("sval", "")),
        constructor=lambda tx: {
            "attribute": clean_label(tx.payload.get("sval", "")),
            "raw": tx.payload.get("sval", ""),
            "for_field": tx.payload.get("for_field", ""),
        },
        name="P-attr",
    )

    def _val_payload(box: Instance) -> dict[str, Any]:
        name = box.payload.get("name")
        return {"fields": (name,) if name else (), "kind": "text"}

    for terminal in ("textbox", "password", "textarea"):
        g.production("Val", [terminal], constructor=_val_payload,
                     name=f"P-val-{terminal}")

    def _sel_payload(sel: Instance) -> dict[str, Any]:
        name = sel.payload.get("name")
        options = tuple(sel.payload.get("options", ()))
        labels = tuple(option.label for option in options if option.label)
        return {
            "fields": (name,) if name else (),
            "values": labels,
            "options": options,
            "kind": "enum",
        }

    for terminal in ("selectlist", "listbox"):
        g.production("SelVal", [terminal], constructor=_sel_payload,
                     name=f"P-selval-{terminal}")

    def _opselect_payload(sel: Instance) -> dict[str, Any]:
        name = sel.payload.get("name")
        options = [
            option for option in sel.payload.get("options", ()) if option.label
        ]
        return {
            "fields": (name,) if name else (),
            "operators": tuple(option.label for option in options),
            "bindings": tuple(
                (option.label, name or "", option.value) for option in options
            ),
        }

    g.production(
        "OpSelect", ["selectlist"],
        constraint=lambda sel: is_operator_select(sel.payload.get("options", ())),
        constructor=_opselect_payload,
        name="P-opselect",
    )

    # -- radio / checkbox units and lists (paper P8, P9) ------------------------

    def _unit_constraint(widget: Instance, tx: Instance) -> bool:
        return left_of(widget.bbox, tx.bbox, _UNIT_SPATIAL)

    def _unit_payload(widget: Instance, tx: Instance) -> dict[str, Any]:
        name = widget.payload.get("name")
        return {
            "labels": (clean_label(tx.payload.get("sval", "")),),
            "fields": (name,) if name else (),
            "values": (widget.payload.get("value", ""),),
        }

    g.production("RBU", ["radiobutton", "text"],
                 constraint=_unit_constraint, constructor=_unit_payload,
                 name="P-rbu", bounds=[row_bound(0, 1, _UNIT_SPATIAL)])
    g.production("CBU", ["checkbox", "text"],
                 constraint=_unit_constraint, constructor=_unit_payload,
                 name="P-cbu", bounds=[row_bound(0, 1, _UNIT_SPATIAL)])

    def _list_seed(unit: Instance) -> dict[str, Any]:
        payload = dict(unit.payload)
        payload["head_box"] = unit.bbox
        return payload

    def _list_extend(lst: Instance, unit: Instance) -> dict[str, Any]:
        return {
            "labels": tuple(lst.payload["labels"]) + tuple(unit.payload["labels"]),
            "fields": _fields(lst, unit),
            "values": tuple(lst.payload["values"]) + tuple(unit.payload["values"]),
            "head_box": lst.payload.get("head_box", lst.bbox),
        }

    def _same_group(lst: Instance, unit: Instance) -> bool:
        """Widgets of one list share their HTML control name.

        Real radio groups must share a name to be exclusive; checkbox
        groups conventionally do too.  Unnamed widgets chain freely.
        """
        list_fields = lst.payload.get("fields", ())
        unit_fields = unit.payload.get("fields", ())
        if not list_fields or not unit_fields:
            return True
        return list_fields[0] == unit_fields[0]

    def _chain_row(lst: Instance, unit: Instance) -> bool:
        return _same_group(lst, unit) and L(lst, unit)

    def _chain_col(lst: Instance, unit: Instance) -> bool:
        """Vertical chaining: the next unit on the directly following line.

        A flowing layout indents a list's first line past its label, so
        column overlap cannot be required when the widgets share a control
        name -- the shared name is already conclusive group evidence.
        """
        if not _same_group(lst, unit):
            return False
        a, b = lst.bbox, unit.bbox
        if a.bottom > b.top + 6.0 or b.top - a.bottom > 12.0:
            return False
        named = bool(
            lst.payload.get("fields", ()) and unit.payload.get("fields", ())
        )
        if named:
            return True
        return a.horizontal_overlap(b) > 0

    # _chain_col accepts any horizontal offset but at most a 12 px line
    # break (6 px overlap tolerance); _chain_row is ordinary left-adjacency.
    chain_col_bound = (0, 1, None,
                       (-(6.0 + _BOUND_SLACK), 12.0 + _BOUND_SLACK))
    for head, unit in (("RBList", "RBU"), ("CBList", "CBU")):
        g.production(head, [unit], constructor=_list_seed, name=f"P-{head}-seed")
        g.production(head, [head, unit], constraint=_chain_row,
                     constructor=_list_extend, name=f"P-{head}-row",
                     bounds=[row_bound(0, 1)])
        g.production(head, [head, unit], constraint=_chain_col,
                     constructor=_list_extend, name=f"P-{head}-col",
                     bounds=[chain_col_bound])

    # A radio list whose labels read like operators can serve as an
    # operator choice (paper P6: Op -> RBList).
    g.production(
        "OpRB", ["RBList"],
        constraint=lambda lst: _mostly_operators(lst.payload.get("labels", ())),
        constructor=lambda lst: {
            "operators": tuple(lst.payload.get("labels", ())),
            "fields": tuple(lst.payload.get("fields", ())),
            "bindings": tuple(
                zip(
                    lst.payload.get("labels", ()),
                    lst.payload.get("fields", ()),
                    lst.payload.get("values", ()),
                )
            ),
        },
        name="P-oprb",
    )

    # -- range and date values ------------------------------------------------------

    g.production(
        "AttrMark", ["text"],
        constraint=lambda tx: split_attr_mark(tx.payload.get("sval", ""))
        is not None,
        constructor=lambda tx: {
            "attribute": (split_attr_mark(tx.payload.get("sval", "")) or ("", ""))[0],
            "mark": (split_attr_mark(tx.payload.get("sval", "")) or ("", ""))[1],
        },
        name="P-attrmark",
    )
    g.production(
        "RangeMark", ["text"],
        constraint=lambda tx: is_range_mark(tx.payload.get("sval", "")),
        constructor=lambda tx: {"mark": clean_label(tx.payload.get("sval", ""))},
        name="P-rangemark",
    )
    g.production(
        "UnitText", ["text"],
        constraint=lambda tx: is_unit_text(tx.payload.get("sval", "")),
        constructor=lambda tx: {"unit": clean_label(tx.payload.get("sval", ""))},
        name="P-unittext",
    )

    def _rv_payload(mark: Instance, value: Instance) -> dict[str, Any]:
        return {"fields": _fields(value), "kind": value.payload.get("kind", "text")}

    g.production("RVUnit", ["RangeMark", "Val"], constraint=TL,
                 constructor=_rv_payload, name="P-rvunit-text",
                 bounds=[row_bound(0, 1, _VALUE_SPATIAL)])
    g.production("RVUnit", ["RangeMark", "SelVal"], constraint=TL,
                 constructor=_rv_payload, name="P-rvunit-sel",
                 bounds=[row_bound(0, 1, _VALUE_SPATIAL)])

    def _range_pair(first: Instance, second: Instance) -> dict[str, Any]:
        return {"fields": _fields(first, second), "kind": "range"}

    def _range_mid(first: Instance, mark: Instance, second: Instance) -> dict[str, Any]:
        return {"fields": _fields(first, second), "kind": "range"}

    g.production("RangeVal", ["RVUnit", "RVUnit"], constraint=TL,
                 constructor=_range_pair, name="P-range-row",
                 bounds=[row_bound(0, 1, _VALUE_SPATIAL)])
    g.production("RangeVal", ["RVUnit", "RVUnit"], constraint=A,
                 constructor=_range_pair, name="P-range-col",
                 bounds=[col_bound(0, 1)])
    g.production(
        "RangeVal", ["Val", "RangeMark", "Val"],
        constraint=lambda v1, mk, v2: TL(v1, mk) and TL(mk, v2),
        constructor=_range_mid, name="P-range-mid-text",
        bounds=[row_bound(0, 1, _VALUE_SPATIAL), row_bound(1, 2, _VALUE_SPATIAL)],
    )
    g.production(
        "RangeVal", ["SelVal", "RangeMark", "SelVal"],
        constraint=lambda v1, mk, v2: TL(v1, mk) and TL(mk, v2),
        constructor=_range_mid, name="P-range-mid-sel",
        bounds=[row_bound(0, 1, _VALUE_SPATIAL), row_bound(1, 2, _VALUE_SPATIAL)],
    )

    def _date3_constraint(s1: Instance, s2: Instance, s3: Instance) -> bool:
        if not (TL(s1, s2) and TL(s2, s3)):
            return False
        signatures = {
            date_signature(s.payload.get("options", ())) for s in (s1, s2, s3)
        }
        return None not in signatures and len(signatures) == 3

    def _date2_constraint(s1: Instance, s2: Instance) -> bool:
        if not TL(s1, s2):
            return False
        first = date_signature(s1.payload.get("options", ()))
        second = date_signature(s2.payload.get("options", ()))
        if first is None or second is None or first == second:
            return False
        return {first, second} != {"day", "year"}

    def _date_payload(*selects: Instance) -> dict[str, Any]:
        return {
            "fields": _fields(*selects),
            "parts": tuple(
                date_signature(s.payload.get("options", ())) or "?" for s in selects
            ),
        }

    g.production("DateVal", ["SelVal", "SelVal", "SelVal"],
                 constraint=_date3_constraint, constructor=_date_payload,
                 name="P-date3",
                 bounds=[row_bound(0, 1, _VALUE_SPATIAL),
                         row_bound(1, 2, _VALUE_SPATIAL)])
    g.production("DateVal", ["SelVal", "SelVal"],
                 constraint=_date2_constraint, constructor=_date_payload,
                 name="P-date2", bounds=[row_bound(0, 1, _VALUE_SPATIAL)])

    # -- condition patterns (CP) -------------------------------------------------------

    def _textval(arrangement: str) -> Callable[[Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, val: Instance) -> dict[str, Any]:
            return _cp(
                _attr_label(attr), ("contains",), Domain("text"), _fields(val),
                arrangement=arrangement, attr=attr, val=val,
            )

        return build

    for relation, suffix, bound in (
        (L, "left", row_bound(0, 1)),
        (AttrA, "above", col_bound(0, 1, _ATTR_ABOVE_SPATIAL)),
        # AttrB reverses the vertical order (the value sits above its
        # label), so it gets a symmetric envelope instead of col_bound's
        # signed i-above-j interval.
        (AttrB, "below",
         (0, 1, _BOUND_SLACK,
          _ATTR_ABOVE_SPATIAL.max_vertical_gap + _BOUND_SLACK)),
    ):
        g.production("CP", ["Attr", "Val"], constraint=relation,
                     constructor=_textval(suffix),
                     name=f"P-cp-textval-{suffix}", bounds=[bound])

    # A <label for="..."> is explicit DOM evidence: the association holds
    # regardless of geometry (a detached label still binds its control).
    def _for_matches(attr: Instance, val: Instance) -> bool:
        target = attr.payload.get("for_field", "")
        fields = val.payload.get("fields", ())
        return bool(target) and bool(fields) and target == fields[0]

    def _dom_textval(attr: Instance, val: Instance) -> dict[str, Any]:
        payload = _textval("left")(attr, val)
        payload["arrangement"] = "dom"
        payload["dom_evidence"] = True
        return payload

    g.production("CP", ["Attr", "Val"], constraint=_for_matches,
                 constructor=_dom_textval, name="P-cp-textval-labelfor")

    def _dom_selcp(attr: Instance, sel: Instance) -> dict[str, Any]:
        payload = _selcp("left")(attr, sel)
        payload["arrangement"] = "dom"
        payload["dom_evidence"] = True
        return payload

    g.production("CP", ["Attr", "SelVal"], constraint=_for_matches,
                 constructor=_dom_selcp, name="P-cp-sel-labelfor")

    g.production(
        "CP", ["Attr", "Val", "UnitText"],
        constraint=lambda attr, val, unit: L(attr, val) and TL(val, unit),
        constructor=lambda attr, val, unit: _cp(
            _attr_label(attr), ("contains",), Domain("text"), _fields(val),
            arrangement="left", attr=attr, val=val,
        ),
        name="P-cp-textval-unit",
        bounds=[row_bound(0, 1), row_bound(1, 2, _VALUE_SPATIAL)],
    )

    def _textop(arrangement: str) -> Callable[[Instance, Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, val: Instance, op: Instance) -> dict[str, Any]:
            return _cp(
                _attr_label(attr),
                tuple(op.payload.get("operators", ())),
                Domain("text"),
                _fields(val, op),
                arrangement=arrangement, attr=attr, val=val, op=op,
                operator_bindings=tuple(op.payload.get("bindings", ())),
            )

        return build

    def _op_below(attr: Instance, val: Instance, op: Instance) -> bool:
        """The operator group hangs directly under the field row.

        Flowing layouts left-align the group with the *label* rather than
        the field, so alignment with either anchors it.
        """
        if val.bbox.bottom > op.bbox.top + 6.0:
            return False
        if op.bbox.top - val.bbox.bottom > 28.0:
            return False
        row_box = attr.bbox.union(val.bbox)
        return op.bbox.horizontal_overlap(row_box) > 0

    # _op_below hangs the group at most 28 px under the field row, at any
    # horizontal offset that still overlaps the row.
    op_below_bound = (1, 2, None,
                      (-(6.0 + _BOUND_SLACK), 28.0 + _BOUND_SLACK))
    g.production(
        "CP", ["Attr", "Val", "OpRB"],
        constraint=lambda attr, val, op: L(attr, val)
        and _op_below(attr, val, op),
        constructor=_textop("left"), name="P-cp-textop-below",
        bounds=[row_bound(0, 1), op_below_bound],
    )
    g.production(
        "CP", ["Attr", "Val", "OpRB"],
        constraint=lambda attr, val, op: L(attr, val) and TL(val, op),
        constructor=_textop("left"), name="P-cp-textop-right",
        bounds=[row_bound(0, 1), row_bound(1, 2, _VALUE_SPATIAL)],
    )
    g.production(
        "CP", ["Attr", "Val", "OpRB"],
        constraint=lambda attr, val, op: AttrA(attr, val) and B(op, val),
        constructor=_textop("above"), name="P-cp-textop-stacked",
        bounds=[col_bound(0, 1, _ATTR_ABOVE_SPATIAL), col_bound(1, 2)],
    )

    def _textopsel(arrangement: str) -> Callable[[Instance, Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, op: Instance, val: Instance) -> dict[str, Any]:
            return _cp(
                _attr_label(attr),
                tuple(op.payload.get("operators", ())),
                Domain("text"),
                _fields(val, op),
                arrangement=arrangement, attr=attr, val=val, op=op,
                operator_bindings=tuple(op.payload.get("bindings", ())),
            )

        return build

    g.production(
        "CP", ["Attr", "OpSelect", "Val"],
        constraint=lambda attr, op, val: L(attr, op) and TL(op, val),
        constructor=_textopsel("left"),
        name="P-cp-textopsel-mid",
        bounds=[row_bound(0, 1), row_bound(1, 2, _VALUE_SPATIAL)],
    )
    g.production(
        "CP", ["Attr", "OpSelect", "Val"],
        constraint=lambda attr, op, val: L(attr, val) and B(op, val),
        constructor=_textopsel("left"),
        name="P-cp-textopsel-below",
        # The op-select hangs *below* the value (j above i), so the
        # vertical envelope is symmetric rather than col_bound's signed
        # i-above-j interval.
        bounds=[row_bound(0, 2),
                (1, 2, _BOUND_SLACK,
                 spatial.max_vertical_gap + _BOUND_SLACK)],
    )

    def _sel_bindings(sel: Instance) -> tuple[tuple[str, str, str], ...]:
        name = (sel.payload.get("fields") or ("",))[0]
        return tuple(
            (option.label, name, option.value)
            for option in sel.payload.get("options", ())
            if option.label
        )

    def _selcp(arrangement: str) -> Callable[[Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, sel: Instance) -> dict[str, Any]:
            return _cp(
                _attr_label(attr),
                ("=",),
                Domain("enum", tuple(sel.payload.get("values", ()))),
                _fields(sel),
                arrangement=arrangement, attr=attr, val=sel,
                value_bindings=_sel_bindings(sel),
            )

        return build

    for relation, suffix, bound in (
        (L, "left", row_bound(0, 1)),
        (AttrA, "above", col_bound(0, 1, _ATTR_ABOVE_SPATIAL)),
    ):
        g.production("CP", ["Attr", "SelVal"], constraint=relation,
                     constructor=_selcp(suffix), name=f"P-cp-sel-{suffix}",
                     bounds=[bound])

    def _enum_payload(
        attr: Instance | None, lst: Instance, multi: bool, arrangement: str
    ) -> dict[str, Any]:
        return _cp(
            _attr_label(attr) if attr is not None else "",
            ("in",) if multi else ("=",),
            Domain("enum", tuple(lst.payload.get("labels", ()))),
            tuple(dict.fromkeys(lst.payload.get("fields", ()))),
            arrangement=arrangement, attr=attr, val=lst,
            value_bindings=tuple(
                zip(
                    lst.payload.get("labels", ()),
                    lst.payload.get("fields", ()),
                    lst.payload.get("values", ()),
                )
            ),
        ) | {"unit_count": len(lst.payload.get("labels", ()))}

    def _enum_cp(
        multi: bool, arrangement: str
    ) -> Callable[[Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, lst: Instance) -> dict[str, Any]:
            return _enum_payload(attr, lst, multi, arrangement)

        return build

    def _heads_list(attr: Instance, lst: Instance) -> bool:
        """Attr left of the list's *first unit* (a flow layout wraps the
        list's later rows back under the label, so the union box overlaps
        the label horizontally)."""
        head_box = lst.payload.get("head_box", lst.bbox)
        return left_of(attr.bbox, head_box, spatial)

    def _list_left(attr: Instance, lst: Instance) -> bool:
        return L(attr, lst) or _heads_list(attr, lst)

    # ``_heads_list`` measures against the list's first-unit box; a
    # wrapped list's union box can extend back past the label, so only a
    # *symmetric* gap envelope (which shrinks as the box grows) stays
    # conservative for the left arrangement -- no signed interval here.
    list_left_bound = (
        0, 1, spatial.max_horizontal_gap + _BOUND_SLACK, _BOUND_SLACK,
    )
    for relation, suffix, bound in (
        (_list_left, "left", list_left_bound),
        (AttrA, "above", col_bound(0, 1, _ATTR_ABOVE_SPATIAL)),
    ):
        g.production(
            "CP", ["Attr", "RBList"], constraint=relation,
            constructor=_enum_cp(False, suffix),
            name=f"P-cp-enumrb-{suffix}", bounds=[bound],
        )
        g.production(
            "CP", ["Attr", "CBList"], constraint=relation,
            constructor=_enum_cp(True, suffix),
            name=f"P-cp-enumcb-{suffix}", bounds=[bound],
        )
    g.production("CP", ["RBList"],
                 constructor=lambda lst: _enum_payload(None, lst, False, "bare"),
                 name="P-cp-enumrb-bare")
    g.production("CP", ["CBList"],
                 constructor=lambda lst: _enum_payload(None, lst, True, "bare"),
                 name="P-cp-enumcb-bare")

    def _range_roles(fields: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
        roles = ("lo", "hi")
        return tuple(
            (field, roles[index]) for index, field in enumerate(fields[:2])
        )

    def _rangecp(arrangement: str) -> Callable[[Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, rng: Instance) -> dict[str, Any]:
            fields = _fields(rng)
            return _cp(
                _attr_label(attr), ("between",), Domain("range"), fields,
                arrangement=arrangement, attr=attr, val=rng,
                field_roles=_range_roles(fields),
            )

        return build

    for relation, suffix, bound in (
        (L, "left", row_bound(0, 1)),
        (AttrA, "above", col_bound(0, 1, _ATTR_ABOVE_SPATIAL)),
    ):
        g.production("CP", ["Attr", "RangeVal"], constraint=relation,
                     constructor=_rangecp(suffix),
                     name=f"P-cp-range-{suffix}", bounds=[bound])

    # In flowing layouts the attribute label and the first endpoint mark
    # fuse into one text run ("Price: from"); AttrMark recovers both roles.
    def _rangecp_mark(am: Instance, *values: Instance) -> dict[str, Any]:
        fields = _fields(*values)
        return _cp(
            str(am.payload.get("attribute", "")),
            ("between",),
            Domain("range"),
            fields,
            arrangement="left", attr=am,
            field_roles=_range_roles(fields),
        )

    range_mark_bounds = [
        row_bound(0, 1, _VALUE_SPATIAL),
        row_bound(1, 2, _VALUE_SPATIAL),
        row_bound(2, 3, _VALUE_SPATIAL),
    ]
    g.production(
        "CP", ["AttrMark", "Val", "RangeMark", "Val"],
        constraint=lambda am, v1, mk, v2: TL(am, v1) and TL(v1, mk) and TL(mk, v2),
        constructor=lambda am, v1, mk, v2: _rangecp_mark(am, v1, v2),
        name="P-cp-range-mark-text", bounds=range_mark_bounds,
    )
    g.production(
        "CP", ["AttrMark", "SelVal", "RangeMark", "SelVal"],
        constraint=lambda am, v1, mk, v2: TL(am, v1) and TL(v1, mk) and TL(mk, v2),
        constructor=lambda am, v1, mk, v2: _rangecp_mark(am, v1, v2),
        name="P-cp-range-mark-sel", bounds=range_mark_bounds,
    )
    def _next_line(a: Instance, b: Instance) -> bool:
        """*b* sits on the line directly below *a* (no column requirement:
        a flowing layout indents the first line past the fused label)."""
        return (
            a.bbox.bottom <= b.bbox.top + 6.0
            and b.bbox.top - a.bbox.bottom <= 12.0
        )

    g.production(
        "CP", ["AttrMark", "Val", "RVUnit"],
        constraint=lambda am, v1, rv: TL(am, v1) and _next_line(v1, rv),
        constructor=lambda am, v1, rv: _rangecp_mark(am, v1, rv),
        name="P-cp-range-mark-stacked",
        bounds=[row_bound(0, 1, _VALUE_SPATIAL),
                (1, 2, None, (-(6.0 + _BOUND_SLACK), 12.0 + _BOUND_SLACK))],
    )

    def _datecp(arrangement: str) -> Callable[[Instance, Instance], dict[str, Any]]:
        def build(attr: Instance, date: Instance) -> dict[str, Any]:
            fields = _fields(date)
            parts = date.payload.get("parts", ())
            return _cp(
                _attr_label(attr), ("=",), Domain("datetime"), fields,
                arrangement=arrangement, attr=attr, val=date,
                field_roles=tuple(zip(fields, parts)),
            )

        return build

    for relation, suffix, bound in (
        (L, "left", row_bound(0, 1)),
        (AttrA, "above", col_bound(0, 1, _ATTR_ABOVE_SPATIAL)),
    ):
        g.production("CP", ["Attr", "DateVal"], constraint=relation,
                     constructor=_datecp(suffix), name=f"P-cp-date-{suffix}",
                     bounds=[bound])

    g.production(
        "CP", ["Val"],
        constructor=lambda val: _cp(
            "", ("contains",), Domain("text"), _fields(val),
            arrangement="bare", val=val,
        ),
        name="P-cp-bareval",
    )
    g.production(
        "CP", ["SelVal"],
        constructor=lambda sel: _cp(
            "", ("=",),
            Domain("enum", tuple(sel.payload.get("values", ()))),
            _fields(sel),
            arrangement="bare", val=sel,
            value_bindings=_sel_bindings(sel),
        ),
        name="P-cp-baresel",
    )

    # -- decoration and noise -------------------------------------------------------

    for terminal in (
        "submitbutton", "resetbutton", "pushbutton", "imagebutton",
        "image", "hrule", "filebox",
    ):
        g.production("Decor", [terminal], name=f"P-decor-{terminal}")
    g.production("Note", ["text"], name="P-note")

    # -- form assembly (paper P1, P2) ---------------------------------------------------

    for component in ("CP", "Decor", "Note"):
        g.production("Item", [component], name=f"P-item-{component.lower()}")
    g.production("HQI", ["Item"], name="P-hqi-seed")
    # _row_chain tolerates a 12 px center offset (which caps the axis gap
    # of non-overlapping boxes) within the row reach; _stack accepts any
    # horizontal offset within the section gap.
    g.production("HQI", ["HQI", "Item"], constraint=_row_chain,
                 name="P-hqi-chain",
                 bounds=[(0, 1, (-(8.0 + _BOUND_SLACK), _ROW_GAP + _BOUND_SLACK),
                          12.0 + _BOUND_SLACK)])
    g.production("QI", ["HQI"], name="P-qi-seed")
    g.production("QI", ["QI", "HQI"], constraint=_stack, name="P-qi-stack",
                 bounds=[(0, 1, None,
                          (-(10.0 + _BOUND_SLACK), _STACK_GAP + _BOUND_SLACK))])

    # -- preferences (Pf) ------------------------------------------------------------

    # R1 (paper Example 4): a radio/checkbox unit binds its text more
    # tightly than an attribute reading.
    g.prefer("RBU", over="Attr", name="R1-rbu-over-attr")
    g.prefer("CBU", over="Attr", name="R1b-cbu-over-attr")
    # R2 (paper Example 4): the longer list subsumes the shorter.
    g.prefer("RBList", over="RBList", when=subsumes, name="R2-longer-rblist")
    g.prefer("CBList", over="CBList", when=subsumes, name="R2b-longer-cblist")
    # Units and marks beat the noise reading of their text.
    g.prefer("RBU", over="Note", name="R3-rbu-over-note")
    g.prefer("CBU", over="Note", name="R3b-cbu-over-note")
    # A composite date beats enum readings of its member selects at the CP
    # level via subsumption; between value groupings, the bigger wins.
    g.prefer("RangeVal", over="RangeVal", when=subsumes, name="R4-longer-range")
    g.prefer("DateVal", over="DateVal", when=subsumes, name="R5-longer-date")
    # Binding conventions between competing condition patterns.  These run
    # before the subsumption rule so that a wrongly-attached bigger pattern
    # cannot first eliminate the correct smaller one.
    g.prefer(
        "CP", over="CP",
        when=shares("val_uid", "attr_uid"),
        criteria=lambda v1, v2: (
            bool(v1.payload.get("dom_evidence"))
            and not v2.payload.get("dom_evidence")
        ),
        name="R6d-dom-evidence-wins",
    )
    g.prefer(
        "CP", over="CP", when=shares("val_uid"),
        criteria=lambda v1, v2: (
            v1.payload.get("arrangement") == "bare"
            and v1.payload.get("unit_count") == 1
            and v2.payload.get("arrangement") in ("above", "below")
        ),
        name="R6e-lone-widget-self-labeled",
    )
    g.prefer(
        "CP", over="CP", when=shares("attr_uid"),
        criteria=_tighter_binding,
        name="R6a-attr-binds-horizontal",
    )
    g.prefer(
        "CP", over="CP", when=shares("val_uid"),
        criteria=_tighter_binding,
        name="R6b-val-binds-horizontal",
    )
    g.prefer(
        "CP", over="CP", when=shares("op_uid"), criteria=_tighter_op,
        name="R6c-op-binds-closest",
    )
    # The dominant disambiguator: a condition pattern that explains more of
    # the form beats one it subsumes, and beats stray role readings of the
    # tokens it claims.
    g.prefer("CP", over="CP", when=subsumes, name="R6-bigger-cp")
    g.prefer("CP", over="Note", name="R7-cp-over-note")
    g.prefer("CP", over="Attr", name="R8-cp-over-attr")
    # Assembly: bigger rows and bigger interfaces win.
    g.prefer("HQI", over="HQI", when=subsumes, name="R9-bigger-hqi")
    g.prefer("QI", over="QI", when=subsumes, name="R10-bigger-qi")

    return g


def _mostly_operators(labels: tuple[str, ...]) -> bool:
    """True when at least half of *labels* read like operators."""
    from repro.grammar.text_heuristics import is_operator_text

    if not labels:
        return False
    hits = sum(1 for label in labels if is_operator_text(label))
    return hits * 2 >= len(labels)
