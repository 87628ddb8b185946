"""Productions: ``⟨H, M, C, F⟩`` (paper Definition 2).

A production rewrites a multiset of component symbols into a head symbol,
guarded by a *constraint* (a boolean expression over the component
instances, typically spatial) and finished by a *constructor* (a function
computing the new instance's semantic payload -- the paper's example is
computing the new ``TextOp``'s position from its components; here the
bounding box union is automatic and the constructor contributes semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TypeAlias

from repro.grammar.instance import Instance
from repro.layout.box import BBox

#: A constraint receives the component instances in declaration order.
Constraint = Callable[..., bool]

#: A constructor returns the payload dict of the new head instance.
Constructor = Callable[..., "dict[str, Any] | None"]

#: One axis of a spatial envelope:
#:
#: * ``None`` -- the axis is unconstrained;
#: * a float ``m`` -- the boxes' symmetric axis gap must be at most ``m``;
#: * a pair ``(lo, hi)`` -- the *signed displacement* of component ``j``
#:   relative to component ``i`` must fall in ``[lo, hi]`` (either end
#:   ``None`` for unbounded).  Horizontally the displacement is
#:   ``j.left - i.right``; vertically it is ``j.top - i.bottom`` -- so a
#:   pair encodes *ordering* ("j starts after i ends, within reach"),
#:   which symmetric gaps cannot.
AxisSpec: TypeAlias = "float | tuple[float | None, float | None] | None"

#: A declarative spatial envelope ``(i, j, h_spec, v_spec)`` over component
#: positions ``i < j``: for a combination to possibly satisfy the
#: production's constraint, components ``i`` and ``j`` must satisfy both
#: :data:`AxisSpec` tests.  Bounds are *conservative* -- they may admit
#: combinations the constraint later rejects, but must never exclude one
#: it would accept.
SpatialBound: TypeAlias = "tuple[int, int, AxisSpec, AxisSpec]"


def _always(*_: Instance) -> bool:
    return True


def _empty_payload(*_: Instance) -> dict[str, Any]:
    return {}


@dataclass(frozen=True)
class Production:
    """One grammar rule.

    Attributes:
        head: The nonterminal being defined.
        components: Component symbols, in constraint-argument order.  The
            paper treats M as a multiset; fixing an order lets constraints
            and constructors take positional arguments, and repeated symbols
            are still allowed.
        constraint: Boolean test over the component instances.  The
            framework additionally enforces that components are pairwise
            distinct and cover disjoint tokens (a construct cannot use one
            token twice).
        constructor: Computes the payload of the new instance.  Returning
            ``None`` vetoes the construction (a semantic constraint).
        name: Identifier used in schedules, dedup keys, and debugging.
        bounds: Optional declarative spatial envelopes (see
            :data:`SpatialBound`).  The parser uses them to pre-filter
            candidate pools before calling :meth:`try_apply`; an empty tuple
            means every combination must be tested.
    """

    head: str
    components: tuple[str, ...]
    constraint: Constraint = _always
    constructor: Constructor = _empty_payload
    name: str = field(default="")
    bounds: tuple[SpatialBound, ...] = ()
    #: ``bounds_by_target[j]`` lists the ``(i, h_spec, v_spec)`` checks
    #: whose later component is position ``j`` (precomputed for the
    #: parser's enumeration hot path).
    bounds_by_target: tuple[tuple[tuple[int, AxisSpec, AxisSpec], ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError(f"production {self.name or self.head} has no components")
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.head}<-{'+'.join(self.components)}"
            )
        normalized: list[SpatialBound] = []
        for i, j, h_spec, v_spec in self.bounds:
            # Signed axis specs are directional, so positions cannot be
            # silently swapped; declare bounds with i < j.
            if not (0 <= i < j < len(self.components)):
                raise ValueError(
                    f"production {self.name}: bound ({i}, {j}) must satisfy "
                    f"0 <= i < j < {len(self.components)}"
                )
            for spec in (h_spec, v_spec):
                if spec is None or isinstance(spec, (int, float)):
                    continue
                if (
                    isinstance(spec, tuple)
                    and len(spec) == 2
                    and all(
                        end is None or isinstance(end, (int, float))
                        for end in spec
                    )
                ):
                    continue
                raise ValueError(
                    f"production {self.name}: invalid axis spec {spec!r}"
                )
            normalized.append((i, j, h_spec, v_spec))
        normalized.sort(key=lambda bound: (bound[1], bound[0]))
        object.__setattr__(self, "bounds", tuple(normalized))
        by_target = [
            tuple(
                (i, h_spec, v_spec)
                for i, j, h_spec, v_spec in normalized
                if j == position
            )
            for position in range(len(self.components))
        ]
        object.__setattr__(self, "bounds_by_target", tuple(by_target))

    def try_apply(self, components: tuple[Instance, ...]) -> Instance | None:
        """Instantiate the head from *components*, or ``None`` if rejected.

        Checks pairwise distinctness, coverage disjointness, and the
        declared constraint, then runs the constructor.  The components
        are never modified: the parse core records the reverse
        (child -> parent) edges when it registers the result.
        """
        # Coverage disjointness via int bitmasks: parser-built instances
        # always cover at least one token, so overlapping masks subsume the
        # pairwise-distinctness test too (an instance overlaps itself).
        # Empty-coverage instances (possible for hand-built inputs only)
        # fall back to the explicit uid scan.  The head's coverage *set* is
        # never materialized here -- the union mask is authoritative and
        # the frozenset view decodes lazily on demand.
        if len(components) == 2:
            # Unrolled two-component case: binary productions dominate the
            # standard grammar, so this branch is nearly every call.  The
            # no-op default constraint/constructor are skipped by identity
            # and the bbox union is computed inline -- together that keeps
            # the accept path free of intermediate calls.
            first, second = components
            mask = first.coverage_mask
            second_mask = second.coverage_mask
            if mask and second_mask:
                if mask & second_mask:
                    return None
                mask |= second_mask
            elif first is second:
                return None
            else:
                mask |= second_mask
            constraint = self.constraint
            if constraint is not _always and not constraint(first, second):
                return None
            constructor = self.constructor
            if constructor is _empty_payload:
                payload: dict[str, Any] | None = {}
            else:
                payload = constructor(first, second)
                if payload is None:
                    return None
            a = first.bbox
            b = second.bbox
            bbox = BBox(
                a.left if a.left <= b.left else b.left,
                a.right if a.right >= b.right else b.right,
                a.top if a.top <= b.top else b.top,
                a.bottom if a.bottom >= b.bottom else b.bottom,
            )
        else:
            mask = 0
            for component in components:
                component_mask = component.coverage_mask
                if component_mask:
                    if mask & component_mask:
                        return None
                    mask |= component_mask
                else:
                    seen: set[int] = set()
                    for other in components:
                        if other.uid in seen:
                            return None
                        seen.add(other.uid)
            if not self.constraint(*components):
                return None
            payload = self.constructor(*components)
            if payload is None:
                return None
            bbox = _union_boxes(components)
        return Instance(
            self.head, bbox, components, None, payload, None, self, mask
        )

    def __str__(self) -> str:
        return f"{self.head} -> {' '.join(self.components)}"


def _union_boxes(instances: tuple[Instance, ...]) -> BBox:
    """Bounding box of the component boxes, built in one pass.

    Skips the per-pair intermediate ``BBox`` objects (and their validity
    re-checks) that chained :meth:`BBox.union` calls would create -- this
    runs once per accepted combination, squarely on the parser's hot path.
    """
    box = instances[0].bbox
    if len(instances) == 1:
        return box
    left, right, top, bottom = box.left, box.right, box.top, box.bottom
    for instance in instances[1:]:
        other = instance.bbox
        if other.left < left:
            left = other.left
        if other.right > right:
            right = other.right
        if other.top < top:
            top = other.top
        if other.bottom > bottom:
            bottom = other.bottom
    return BBox(left, right, top, bottom)
