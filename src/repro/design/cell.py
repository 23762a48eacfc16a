"""Standard-cell / macro masters and their placed instances.

Masters describe pin and obstruction geometry once in local coordinates
(LEF-style); instances place a master at an offset with an orientation and
produce chip-space :class:`~repro.design.pin.Pin` objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.design.pin import Pin, PinShape
from repro.geometry import Orientation, Point, Rect, Transform


@dataclass(frozen=True)
class MasterPin:
    """A pin template in master (local) coordinates."""

    name: str
    layer: int
    rect: Rect


@dataclass
class CellMaster:
    """A reusable cell or macro definition.

    Attributes
    ----------
    name:
        Master name, e.g. ``"NAND2_X1"`` or ``"RAM_MACRO"``.
    width / height:
        Footprint in DBU with the lower-left corner at the origin.
    pins:
        Pin templates in master coordinates.
    obstructions:
        Metal blockages in master coordinates as ``(layer, rect)`` pairs.
    is_macro:
        Macros block routing over a larger area and typically on more layers.
    """

    name: str
    width: int
    height: int
    pins: List[MasterPin] = field(default_factory=list)
    obstructions: List[PinShape] = field(default_factory=list)
    is_macro: bool = False

    def pin_by_name(self, name: str) -> MasterPin:
        """Return the master pin called *name*."""
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise KeyError(f"master {self.name!r} has no pin {name!r}")

    def add_pin(self, name: str, layer: int, rect: Rect) -> MasterPin:
        """Register a pin template and return it."""
        pin = MasterPin(name, layer, rect)
        self.pins.append(pin)
        return pin

    def add_obstruction(self, layer: int, rect: Rect) -> None:
        """Register a routing blockage in master coordinates."""
        self.obstructions.append(PinShape(layer, rect))


@dataclass
class CellInstance:
    """A placed occurrence of a :class:`CellMaster`."""

    name: str
    master: CellMaster
    location: Point
    orientation: Orientation = Orientation.N

    @property
    def transform(self) -> Transform:
        """Return the master-to-chip transform of this instance."""
        return Transform(
            offset=self.location,
            orientation=self.orientation,
            width=self.master.width,
            height=self.master.height,
        )

    def footprint(self) -> Rect:
        """Return the placed bounding box of the instance."""
        size = self.transform.placed_size()
        return Rect(
            self.location.x,
            self.location.y,
            self.location.x + size.x,
            self.location.y + size.y,
        )

    def make_pin(self, pin_name: str) -> Pin:
        """Instantiate a chip-space :class:`Pin` for *pin_name*."""
        master_pin = self.master.pin_by_name(pin_name)
        rect = self.transform.apply_to_rect(master_pin.rect)
        pin = Pin(name=pin_name, instance_name=self.name)
        pin.add_shape(master_pin.layer, rect)
        return pin

    def obstruction_shapes(self) -> List[PinShape]:
        """Return chip-space obstruction rectangles of this instance."""
        transform = self.transform
        return [
            PinShape(shape.layer, transform.apply_to_rect(shape.rect))
            for shape in self.master.obstructions
        ]
