"""Axis-aligned bounding boxes.

The paper records every token's position as a bounding box
``pos = (left, right, top, bottom)`` (see Figure 5, where the text token
"Author" has ``pos = (10, 40, 10, 20)``).  :class:`BBox` adopts the same
convention and supplies the geometric algebra the spatial relations and the
layout engine need: union, intersection, overlap extents, gaps, and
center-to-center distances.

Coordinates grow rightward (x) and downward (y), like screen coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned rectangle ``(left, right, top, bottom)``.

    A valid box has ``left <= right`` and ``top <= bottom``; zero-area boxes
    (points, segments) are permitted because empty text runs and hidden
    controls can legitimately collapse.
    """

    left: float
    right: float
    top: float
    bottom: float

    def __post_init__(self) -> None:
        if self.right < self.left:
            raise ValueError(f"right < left in {self!r}")
        if self.bottom < self.top:
            raise ValueError(f"bottom < top in {self!r}")

    # -- basic measures -----------------------------------------------------

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center_x(self) -> float:
        return (self.left + self.right) / 2.0

    @property
    def center_y(self) -> float:
        return (self.top + self.bottom) / 2.0

    @property
    def center(self) -> tuple[float, float]:
        return (self.center_x, self.center_y)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(left, right, top, bottom)``, the paper's ``pos`` order."""
        return (self.left, self.right, self.top, self.bottom)

    # -- predicates -----------------------------------------------------------

    def intersects(self, other: "BBox") -> bool:
        """True if the boxes share any point (touching edges count)."""
        return (
            self.left <= other.right
            and other.left <= self.right
            and self.top <= other.bottom
            and other.top <= self.bottom
        )

    def contains(self, other: "BBox") -> bool:
        """True if *other* lies entirely within this box."""
        return (
            self.left <= other.left
            and self.right >= other.right
            and self.top <= other.top
            and self.bottom >= other.bottom
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.left <= x <= self.right and self.top <= y <= self.bottom

    # -- overlap extents -----------------------------------------------------

    def horizontal_overlap(self, other: "BBox") -> float:
        """Length of the shared x-interval (0 when disjoint)."""
        return max(0.0, min(self.right, other.right) - max(self.left, other.left))

    def vertical_overlap(self, other: "BBox") -> float:
        """Length of the shared y-interval (0 when disjoint)."""
        return max(0.0, min(self.bottom, other.bottom) - max(self.top, other.top))

    # -- gaps and distances -----------------------------------------------------

    def horizontal_gap(self, other: "BBox") -> float:
        """Horizontal separation between the boxes (0 if x-ranges overlap)."""
        if self.right < other.left:
            return other.left - self.right
        if other.right < self.left:
            return self.left - other.right
        return 0.0

    def vertical_gap(self, other: "BBox") -> float:
        """Vertical separation between the boxes (0 if y-ranges overlap)."""
        if self.bottom < other.top:
            return other.top - self.bottom
        if other.bottom < self.top:
            return self.top - other.bottom
        return 0.0

    def gap(self, other: "BBox") -> float:
        """Euclidean distance between the closest points of the two boxes."""
        return math.hypot(self.horizontal_gap(other), self.vertical_gap(other))

    def center_distance(self, other: "BBox") -> float:
        """Euclidean distance between box centers."""
        return math.hypot(
            self.center_x - other.center_x, self.center_y - other.center_y
        )

    # -- combining -----------------------------------------------------------

    def union(self, other: "BBox") -> "BBox":
        """Smallest box containing both boxes."""
        return BBox(
            min(self.left, other.left),
            max(self.right, other.right),
            min(self.top, other.top),
            max(self.bottom, other.bottom),
        )

    def intersection(self, other: "BBox") -> "BBox | None":
        """The shared rectangle, or ``None`` when the boxes are disjoint."""
        left = max(self.left, other.left)
        right = min(self.right, other.right)
        top = max(self.top, other.top)
        bottom = min(self.bottom, other.bottom)
        if left > right or top > bottom:
            return None
        return BBox(left, right, top, bottom)

    def translate(self, dx: float, dy: float) -> "BBox":
        """A copy of this box moved by ``(dx, dy)``."""
        return BBox(self.left + dx, self.right + dx, self.top + dy, self.bottom + dy)

    def inflate(self, margin: float) -> "BBox":
        """A copy grown by *margin* on every side (clamped to validity)."""
        left = self.left - margin
        right = self.right + margin
        top = self.top - margin
        bottom = self.bottom + margin
        if right < left:
            left = right = (left + right) / 2.0
        if bottom < top:
            top = bottom = (top + bottom) / 2.0
        return BBox(left, right, top, bottom)


def union_all(boxes: list[BBox]) -> BBox:
    """Bounding box of a non-empty list of boxes (single pass, no
    intermediate box objects)."""
    if not boxes:
        raise ValueError("union_all() requires at least one box")
    first = boxes[0]
    if len(boxes) == 1:
        return first
    left, right, top, bottom = first.left, first.right, first.top, first.bottom
    for box in boxes[1:]:
        if box.left < left:
            left = box.left
        if box.right > right:
            right = box.right
        if box.top < top:
            top = box.top
        if box.bottom > bottom:
            bottom = box.bottom
    return BBox(left, right, top, bottom)

