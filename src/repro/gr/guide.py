"""Route guides: the interface between global and detailed routing.

A guide is, per net, a set of GCells (per layer) the detailed router should
stay inside.  The ISPD 2018/2019 contests deliver guides as rectangles per
layer in a ``.guide`` file; here the guide also answers point-membership
queries directly against detailed-grid coordinates so the detailed routers
can charge the out-of-guide penalty of the contest cost model.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.geometry import Point, Rect
from repro.grid.gcell import GCell, GCellGrid


@dataclass
class RouteGuide:
    """The guide region of a single net."""

    net_name: str
    cells: Set[GCell] = field(default_factory=set)

    def add_cell(self, cell: GCell) -> None:
        """Include *cell* in the guide."""
        self.cells.add(cell)

    def add_cells(self, cells: Iterable[GCell]) -> None:
        """Include every cell of *cells* in the guide."""
        self.cells.update(cells)

    def covers_cell(self, cell: GCell) -> bool:
        """Return ``True`` when *cell* is part of the guide."""
        return cell in self.cells

    def layers(self) -> Set[int]:
        """Return the set of layers the guide touches."""
        return {cell.layer for cell in self.cells}

    def rectangles(self, gcell_grid: GCellGrid) -> List[Tuple[int, Rect]]:
        """Return the guide as per-cell ``(layer, rect)`` rectangles."""
        return [(cell.layer, gcell_grid.cell_rect(cell)) for cell in sorted(self.cells)]

    def expanded(self, gcell_grid: GCellGrid, margin_cells: int = 1) -> "RouteGuide":
        """Return a guide grown by *margin_cells* GCells in every direction.

        Detailed routers conventionally bloat guides slightly so pin access
        and small detours remain in-guide.
        """
        num_layers = gcell_grid.num_layers
        num_gx, num_gy = gcell_grid.num_gx, gcell_grid.num_gy
        # Grow on (layer, gx, gy) ints, so each grown cell is built once.
        grown: Set[Tuple[int, int, int]] = set()
        for cell in self.cells:
            layer, gx, gy = cell.layer, cell.gx, cell.gy
            if 0 <= layer < num_layers:
                for x in range(max(gx - margin_cells, 0), min(gx + margin_cells + 1, num_gx)):
                    for y in range(max(gy - margin_cells, 0), min(gy + margin_cells + 1, num_gy)):
                        grown.add((layer, x, y))
            # Guides should also cover the layers directly above/below so the
            # detailed router can drop vias without leaving the guide.
            if 0 <= gx < num_gx and 0 <= gy < num_gy:
                for via_layer in (layer - 1, layer + 1):
                    if 0 <= via_layer < num_layers:
                        grown.add((via_layer, gx, gy))
        return RouteGuide(self.net_name, {GCell(*cell) for cell in grown})


class GuideSet:
    """All route guides of a design plus fast point membership queries."""

    def __init__(self, gcell_grid: GCellGrid) -> None:
        self.gcell_grid = gcell_grid
        self._guides: Dict[str, RouteGuide] = {}

    def __len__(self) -> int:
        return len(self._guides)

    def __contains__(self, net_name: str) -> bool:
        return net_name in self._guides

    def add(self, guide: RouteGuide) -> None:
        """Register the guide of ``guide.net_name`` (replacing any previous one)."""
        self._guides[guide.net_name] = guide

    def guide_of(self, net_name: str) -> Optional[RouteGuide]:
        """Return the guide of *net_name*, or ``None`` when absent."""
        return self._guides.get(net_name)

    def net_names(self) -> List[str]:
        """Return the guided net names, sorted for determinism."""
        return sorted(self._guides)

    def covers_point(self, net_name: str, layer: int, point: Point) -> bool:
        """Return ``True`` when *point* on *layer* lies inside the net's guide.

        Nets without a guide are treated as unguided: everything is
        considered in-guide so they incur no out-of-guide penalty.
        """
        guide = self._guides.get(net_name)
        if guide is None or not guide.cells:
            return True
        cell = self.gcell_grid.cell_of_point(layer, point)
        return guide.covers_cell(cell)

    def coverage_statistics(self) -> Dict[str, float]:
        """Return aggregate guide statistics for reports."""
        if not self._guides:
            return {"nets": 0, "mean_cells": 0.0, "max_cells": 0}
        sizes = [len(guide.cells) for guide in self._guides.values()]
        return {
            "nets": len(sizes),
            "mean_cells": sum(sizes) / len(sizes),
            "max_cells": max(sizes),
        }


class GuideTables:
    """A guide set read through the flat vertex indices of one routing grid.

    ``mask(net)[slot_map()[index]]`` is 1 when vertex *index* lies inside
    the net's guide.  The search tiers charge the out-of-guide penalty from
    these tables and :class:`repro.dr.drc.DRCChecker` counts out-of-guide
    vertices from them, so guide membership has one implementation.
    *grid* is a :class:`repro.grid.RoutingGrid`; *guides* may be ``None``,
    which makes every vertex in-guide.
    """

    def __init__(self, grid, guides: Optional[GuideSet]) -> None:
        self.grid = grid
        self.guides = guides
        # Guide gcell columns/rows (one of each without a guide set).
        gcells = guides.gcell_grid if guides is not None else None
        self._num_gx = gcells.num_gx if gcells is not None else 1
        self._num_gy = gcells.num_gy if gcells is not None else 1
        self._slot_of: Optional[array] = None
        # Guides are immutable once built, so masks never invalidate; nets
        # without a guide share one all-ones mask.
        self._masks: Dict[str, bytes] = {}
        self._open_mask: Optional[bytes] = None

    def slot_map(self) -> array:
        """Return the ``array('i')`` map from flat vertex index to gcell slot.

        Slot ``(layer * num_gx + gx) * num_gy + gy``
        (:meth:`GCellGrid.slot_of`, the global router's numbering) addresses
        the gcell holding the vertex.  Each grid column/row is bucketed with
        :meth:`GCellGrid.cell_of_point`'s exact clamped arithmetic (the axes
        are independent), so lookups agree with per-point
        :meth:`GuideSet.covers_point` queries.  Built once, lazily; without
        a guide set there is one slot per layer.
        """
        if self._slot_of is not None:
            return self._slot_of
        grid = self.grid
        num_gx, num_gy = self._num_gx, self._num_gy
        if self.guides is None:
            gx_of = [0] * grid.num_cols
            gy_of = [0] * grid.num_rows
        else:
            gcells = self.guides.gcell_grid
            size = gcells.gcell_size

            def buckets(count: int, grid_origin: int, gcell_origin: int, limit: int) -> List[int]:
                start = grid_origin - gcell_origin
                offsets = (start + ordinal * grid.pitch for ordinal in range(count))
                return [min(max(offset // size, 0), limit - 1) for offset in offsets]

            gx_of = buckets(grid.num_cols, grid.origin.x, gcells.origin.x, num_gx)
            gy_of = buckets(grid.num_rows, grid.origin.y, gcells.origin.y, num_gy)
        # Every grid column of one (layer, gcell column) shares its run of
        # row slots.
        columns: Dict[int, array] = {}
        slot_of = array("i")
        for layer in range(grid.num_layers):
            for gx in gx_of:
                base = (layer * num_gx + gx) * num_gy
                column = columns.get(base)
                if column is None:
                    column = columns[base] = array("i", [base + gy for gy in gy_of])
                slot_of.extend(column)
        self._slot_of = slot_of
        return slot_of

    def mask(self, net_name: str) -> bytes:
        """Return the net's guide as one byte per gcell slot (1 = in guide).

        Cached; unguided nets (and every net without a guide set) share one
        all-ones mask.
        """
        mask = self._masks.get(net_name)
        if mask is not None:
            return mask
        num_layers, num_gx, num_gy = self.grid.num_layers, self._num_gx, self._num_gy
        guide = self.guides.guide_of(net_name) if self.guides is not None else None
        if guide is None or not guide.cells:
            if self._open_mask is None:
                self._open_mask = b"\x01" * (num_layers * num_gx * num_gy)
            mask = self._open_mask
        else:
            inside = bytearray(num_layers * num_gx * num_gy)
            slot_of = self.guides.gcell_grid.slot_of
            for cell in guide.cells:
                if 0 <= cell.layer < num_layers and 0 <= cell.gx < num_gx and 0 <= cell.gy < num_gy:
                    inside[slot_of(cell)] = 1
            mask = bytes(inside)
        self._masks[net_name] = mask
        return mask
