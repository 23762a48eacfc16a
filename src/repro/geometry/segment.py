"""Rectilinear wire segments.

A :class:`Segment` is a horizontal or vertical run of wire on one routing
layer, described by its two grid-aligned endpoints in database units plus a
wire width.  Routed paths are decomposed into segments (and vias) for metric
computation, conflict detection and export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True, order=True)
class Segment:
    """A horizontal or vertical wire piece on a single routing layer."""

    layer: int
    start: Point
    end: Point
    width: int = 0

    def __post_init__(self) -> None:
        if self.start.x != self.end.x and self.start.y != self.end.y:
            raise ValueError(
                f"segment endpoints must share a coordinate: {self.start} .. {self.end}"
            )
        # Normalise so start <= end; keeps hashing / equality canonical.
        if (self.end.x, self.end.y) < (self.start.x, self.start.y):
            start, end = self.end, self.start
            object.__setattr__(self, "start", start)
            object.__setattr__(self, "end", end)

    @property
    def is_horizontal(self) -> bool:
        """Return ``True`` for a horizontal run (may also be a point)."""
        return self.start.y == self.end.y

    @property
    def is_vertical(self) -> bool:
        """Return ``True`` for a vertical run (may also be a point)."""
        return self.start.x == self.end.x

    @property
    def length(self) -> int:
        """Return the centre-line length in DBU."""
        return self.start.manhattan_distance(self.end)

    def bounding_box(self) -> Rect:
        """Return the metal rectangle: the centre line bloated by half-width."""
        half = self.width // 2
        return Rect(
            min(self.start.x, self.end.x) - half,
            min(self.start.y, self.end.y) - half,
            max(self.start.x, self.end.x) + half,
            max(self.start.y, self.end.y) + half,
        )

    def contains_point(self, point: Point) -> bool:
        """Return ``True`` when *point* lies on the segment centre line."""
        if self.is_horizontal and point.y == self.start.y:
            return min(self.start.x, self.end.x) <= point.x <= max(self.start.x, self.end.x)
        if self.is_vertical and point.x == self.start.x:
            return min(self.start.y, self.end.y) <= point.y <= max(self.start.y, self.end.y)
        return False

    def overlaps(self, other: "Segment") -> bool:
        """Return ``True`` when metal rectangles of two segments intersect."""
        if self.layer != other.layer:
            return False
        return self.bounding_box().overlaps(other.bounding_box())

    def spacing_to(self, other: "Segment") -> int:
        """Return the metal-to-metal spacing (0 when touching or overlapping)."""
        return self.bounding_box().distance_to(other.bounding_box())

    def merged_with(self, other: "Segment") -> Optional["Segment"]:
        """Return the union segment when the two are collinear and touching.

        Returns ``None`` when the segments cannot be merged into one straight
        run (different layers / widths, not collinear, or a gap between them).
        """
        if self.layer != other.layer or self.width != other.width:
            return None
        if self.is_horizontal and other.is_horizontal and self.start.y == other.start.y:
            lo = min(self.start.x, other.start.x)
            hi = max(self.end.x, other.end.x)
            if max(self.start.x, other.start.x) <= min(self.end.x, other.end.x):
                return Segment(self.layer, Point(lo, self.start.y), Point(hi, self.start.y), self.width)
        if self.is_vertical and other.is_vertical and self.start.x == other.start.x:
            lo = min(self.start.y, other.start.y)
            hi = max(self.end.y, other.end.y)
            if max(self.start.y, other.start.y) <= min(self.end.y, other.end.y):
                return Segment(self.layer, Point(self.start.x, lo), Point(self.start.x, hi), self.width)
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"M{self.layer} {self.start}->{self.end} w={self.width}"
