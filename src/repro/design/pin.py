"""Pins: the electrical terminals a router must connect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.geometry import Point, Rect


@dataclass(frozen=True)
class PinShape:
    """One metal rectangle of a pin on a specific routing layer."""

    layer: int
    rect: Rect


@dataclass
class Pin:
    """A named terminal consisting of one or more metal shapes.

    A pin may belong to a cell instance (``instance_name`` set) or be a
    top-level port (``instance_name`` is ``None``).  The full name used in
    netlists is ``instance/pin`` for instance pins and just the pin name for
    ports.
    """

    name: str
    shapes: List[PinShape] = field(default_factory=list)
    instance_name: Optional[str] = None
    net_name: Optional[str] = None

    @property
    def full_name(self) -> str:
        """Return the hierarchical pin name (``inst/pin`` or ``pin``)."""
        if self.instance_name:
            return f"{self.instance_name}/{self.name}"
        return self.name

    @property
    def is_port(self) -> bool:
        """Return ``True`` for a top-level port (no owning instance)."""
        return self.instance_name is None

    def add_shape(self, layer: int, rect: Rect) -> None:
        """Append a metal rectangle on *layer*."""
        self.shapes.append(PinShape(layer, rect))

    def layers(self) -> List[int]:
        """Return the sorted list of layers on which the pin has metal."""
        return sorted({shape.layer for shape in self.shapes})

    def bounding_box(self) -> Rect:
        """Return the bounding box over all shapes (any layer)."""
        if not self.shapes:
            raise ValueError(f"pin {self.full_name!r} has no shapes")
        return Rect.bounding([shape.rect for shape in self.shapes])

    def center(self) -> Point:
        """Return the centre of the bounding box; used for Steiner estimates."""
        return self.bounding_box().center

    def covers(self, layer: int, point: Point) -> bool:
        """Return ``True`` when *point* on *layer* lies inside any pin shape."""
        return any(shape.rect.contains_point(point) for shape in self.shapes if shape.layer == layer)
