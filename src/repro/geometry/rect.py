"""Axis-aligned rectangles in database units.

Rectangles represent pin shapes, obstacles, routed wire metal (a segment
bloated by half its width) and GR guide regions.  The convention is closed
on all four sides, matching :class:`repro.geometry.interval.Interval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.geometry.interval import Interval
from repro.geometry.point import Point


@dataclass(frozen=True, order=True)
class Rect:
    """A closed axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]``."""

    xlo: int
    ylo: int
    xhi: int
    yhi: int

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            xlo, xhi = sorted((self.xlo, self.xhi))
            ylo, yhi = sorted((self.ylo, self.yhi))
            object.__setattr__(self, "xlo", xlo)
            object.__setattr__(self, "xhi", xhi)
            object.__setattr__(self, "ylo", ylo)
            object.__setattr__(self, "yhi", yhi)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Rect":
        """Return the bounding box of two points."""
        return cls(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    @classmethod
    def bounding(cls, rects: List["Rect"]) -> "Rect":
        """Return the bounding box of a non-empty list of rectangles."""
        if not rects:
            raise ValueError("Rect.bounding() needs at least one rectangle")
        return cls(
            min(r.xlo for r in rects),
            min(r.ylo for r in rects),
            max(r.xhi for r in rects),
            max(r.yhi for r in rects),
        )

    # -- basic properties ----------------------------------------------------

    @property
    def width(self) -> int:
        """Return the horizontal extent."""
        return self.xhi - self.xlo

    @property
    def height(self) -> int:
        """Return the vertical extent."""
        return self.yhi - self.ylo

    @property
    def area(self) -> int:
        """Return ``width * height``."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Return the (integer-truncated) centre point."""
        return Point((self.xlo + self.xhi) // 2, (self.ylo + self.yhi) // 2)

    @property
    def x_interval(self) -> Interval:
        """Return the horizontal span as an interval."""
        return Interval(self.xlo, self.xhi)

    @property
    def y_interval(self) -> Interval:
        """Return the vertical span as an interval."""
        return Interval(self.ylo, self.yhi)

    def corners(self) -> Iterator[Point]:
        """Yield the four corner points counter-clockwise from lower-left."""
        yield Point(self.xlo, self.ylo)
        yield Point(self.xhi, self.ylo)
        yield Point(self.xhi, self.yhi)
        yield Point(self.xlo, self.yhi)

    # -- predicates -----------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """Return ``True`` when *point* is inside or on the boundary."""
        return self.xlo <= point.x <= self.xhi and self.ylo <= point.y <= self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        """Return ``True`` when *other* is fully inside this rectangle."""
        return (
            self.xlo <= other.xlo
            and other.xhi <= self.xhi
            and self.ylo <= other.ylo
            and other.yhi <= self.yhi
        )

    def overlaps(self, other: "Rect") -> bool:
        """Return ``True`` when the closed rectangles share any point."""
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    def overlaps_strictly(self, other: "Rect") -> bool:
        """Return ``True`` when the rectangles share interior area (not just an edge)."""
        return (
            self.xlo < other.xhi
            and other.xlo < self.xhi
            and self.ylo < other.yhi
            and other.ylo < self.yhi
        )

    # -- measurements ----------------------------------------------------------

    def distance_to(self, other: "Rect") -> int:
        """Return the rectilinear gap between rectangles (0 when touching/overlapping).

        This is the spacing measure used by the design-rule and color-conflict
        checks: the maximum of the per-axis gaps when the projections are
        disjoint, i.e. the L-infinity distance between closest corners, which
        matches how Euclidean-free spacing tables are applied on grids.
        """
        dx = self.x_interval.distance_to(other.x_interval)
        dy = self.y_interval.distance_to(other.y_interval)
        return max(dx, dy)

    # -- constructive operations -----------------------------------------------

    def expanded(self, amount: int) -> "Rect":
        """Return the rectangle bloated by *amount* on all four sides."""
        return Rect(self.xlo - amount, self.ylo - amount, self.xhi + amount, self.yhi + amount)

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return the rectangle shifted by ``(dx, dy)``."""
        return Rect(self.xlo + dx, self.ylo + dy, self.xhi + dx, self.yhi + dy)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Return the overlap rectangle, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return Rect(
            max(self.xlo, other.xlo),
            max(self.ylo, other.ylo),
            min(self.xhi, other.xhi),
            min(self.yhi, other.yhi),
        )

    def union_bbox(self, other: "Rect") -> "Rect":
        """Return the bounding box of both rectangles."""
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Return ``(xlo, ylo, xhi, yhi)``."""
        return self.xlo, self.ylo, self.xhi, self.yhi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.xlo},{self.ylo} .. {self.xhi},{self.yhi}]"
