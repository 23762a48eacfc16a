"""The coarse GCell grid used by the global router.

A GCell groups a square block of detailed-routing tracks.  The global router
works on this coarse grid, producing per-net *guides* (sets of GCells per
layer) that the detailed routers then prefer to stay inside -- the paper's
flow computes "color cost by GR guide", i.e. the color-aware cost is only
evaluated within the guide region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.design import Design
from repro.geometry import Point, Rect


@dataclass(frozen=True, order=True)
class GCell:
    """A coarse grid cell address: ``(layer, gx, gy)``."""

    layer: int
    gx: int
    gy: int


class GCellGrid:
    """Coarse congestion grid over a design.

    Parameters
    ----------
    design:
        The design to cover.
    gcell_size:
        GCell edge length in DBU.
    capacity:
        Nominal number of routing tracks available across one GCell boundary
        per layer; congestion-aware global routing keeps usage below this.
    """

    def __init__(self, design: Design, gcell_size: int = 16, capacity: int = 6) -> None:
        if gcell_size <= 0:
            raise ValueError("gcell_size must be positive")
        self.design = design
        self.gcell_size = gcell_size
        self.capacity = capacity
        die = design.die_area
        self.origin = Point(die.xlo, die.ylo)
        self.num_layers = design.tech.num_layers
        self.num_gx = max(1, -(-die.width // gcell_size))
        self.num_gy = max(1, -(-die.height // gcell_size))
        # Boundary usage between planar-adjacent gcells, keyed by the slot
        # pair with the lower slot first.
        self._usage: Dict[Tuple[int, int], int] = {}
        #: Boundary capacity of every slot, reduced by blockage coverage.
        self.slot_capacity: List[float] = self._slot_capacities()

    # -- geometry -----------------------------------------------------------

    def slot_of(self, cell: GCell) -> int:
        """Return the flat slot ``(layer * num_gx + gx) * num_gy + gy`` of *cell*.

        Slots order like cells, so the lower slot of a pair is the lower cell.
        """
        return (cell.layer * self.num_gx + cell.gx) * self.num_gy + cell.gy

    def cell_of_slot(self, slot: int) -> GCell:
        """Return the cell addressed by flat *slot* (inverse of :meth:`slot_of`)."""
        rest, gy = divmod(slot, self.num_gy)
        layer, gx = divmod(rest, self.num_gx)
        return GCell(layer, gx, gy)

    def cell_of_point(self, layer: int, point: Point) -> GCell:
        """Return the GCell containing *point* on *layer* (clamped to bounds)."""
        gx = min(max((point.x - self.origin.x) // self.gcell_size, 0), self.num_gx - 1)
        gy = min(max((point.y - self.origin.y) // self.gcell_size, 0), self.num_gy - 1)
        return GCell(layer, gx, gy)

    def cell_rect(self, cell: GCell) -> Rect:
        """Return the DBU rectangle covered by *cell*."""
        xlo = self.origin.x + cell.gx * self.gcell_size
        ylo = self.origin.y + cell.gy * self.gcell_size
        return Rect(xlo, ylo, xlo + self.gcell_size, ylo + self.gcell_size)

    def cells_covering(self, layer: int, rect: Rect) -> List[GCell]:
        """Return every GCell on *layer* overlapping *rect*."""
        lo = self.cell_of_point(layer, Point(rect.xlo, rect.ylo))
        hi = self.cell_of_point(layer, Point(rect.xhi, rect.yhi))
        cells = []
        for gx in range(lo.gx, hi.gx + 1):
            for gy in range(lo.gy, hi.gy + 1):
                cells.append(GCell(layer, gx, gy))
        return cells

    # -- congestion accounting ------------------------------------------------
    #
    # The global router works on slots; the GCell methods wrap the slot ones.

    @staticmethod
    def _usage_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def usage(self, a: GCell, b: GCell) -> int:
        """Return the number of nets currently crossing the ``a``-``b`` boundary."""
        return self._usage.get(self._usage_key(self.slot_of(a), self.slot_of(b)), 0)

    def add_usage(self, a: GCell, b: GCell, amount: int = 1) -> None:
        """Record *amount* additional nets crossing the ``a``-``b`` boundary."""
        self.add_slot_usage(self.slot_of(a), self.slot_of(b), amount)

    def add_slot_usage(self, a: int, b: int, amount: int = 1) -> None:
        """Record *amount* additional nets crossing the slot ``a``-``b`` boundary."""
        key = self._usage_key(a, b)
        self._usage[key] = self._usage.get(key, 0) + amount

    def effective_capacity(self, cell: GCell) -> float:
        """Return the boundary capacity of *cell* reduced by blockage coverage."""
        return self.slot_capacity[self.slot_of(cell)]

    def congestion_cost(self, a: GCell, b: GCell) -> float:
        """Return a smooth congestion penalty for crossing the ``a``-``b`` boundary."""
        capacity = max(min(self.effective_capacity(a), self.effective_capacity(b)), 0.5)
        usage = self.usage(a, b)
        overflow = max(0.0, usage + 1 - capacity)
        return 1.0 + overflow * overflow

    def total_overflow(self) -> float:
        """Return the summed overflow over all boundaries (GR quality metric)."""
        capacity_of = self.slot_capacity
        overflow = 0.0
        for (a, b), usage in self._usage.items():
            capacity = max(min(capacity_of[a], capacity_of[b]), 0.5)
            overflow += max(0.0, usage - capacity)
        return overflow

    def _slot_capacities(self) -> List[float]:
        size = self.gcell_size
        cell_area = size * size
        blocked: Dict[int, float] = {}
        for shape in self.design.blockage_shapes():
            layer, rect = shape.layer, shape.rect
            if not 0 <= layer < self.num_layers:
                continue
            lo = self.cell_of_point(layer, Point(rect.xlo, rect.ylo))
            hi = self.cell_of_point(layer, Point(rect.xhi, rect.yhi))
            # The blocked fraction of each covered cell is the area of its
            # closed-rect intersection with the shape over its own area.
            for gx in range(lo.gx, hi.gx + 1):
                cell_xlo = self.origin.x + gx * size
                width = min(cell_xlo + size, rect.xhi) - max(cell_xlo, rect.xlo)
                if width < 0:
                    continue
                for gy in range(lo.gy, hi.gy + 1):
                    cell_ylo = self.origin.y + gy * size
                    height = min(cell_ylo + size, rect.yhi) - max(cell_ylo, rect.ylo)
                    if height < 0:
                        continue
                    slot = (layer * self.num_gx + gx) * self.num_gy + gy
                    fraction = width * height / cell_area
                    blocked[slot] = min(1.0, blocked.get(slot, 0.0) + fraction)
        slots = range(self.num_layers * self.num_gx * self.num_gy)
        return [self.capacity * (1.0 - blocked.get(slot, 0.0)) for slot in slots]
