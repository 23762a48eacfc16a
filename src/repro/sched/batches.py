"""Disjoint-batch planning over the pending-net queue.

Nets whose interaction neighbourhoods are spatially disjoint cannot affect
each other's costs, colors or violations: occupancy and history penalties
act at the metal itself, and color pressure reaches at most the interaction
radius (``max(Dcolor, min_spacing)``, :meth:`RoutingGrid.interaction_radius`)
around it.  The scheduler therefore assigns every net a planar **window** --
its pin bounding box mapped to grid cells and expanded by the interaction
reach -- and groups nets whose windows are pairwise disjoint into batches
the executor may route concurrently against one frozen grid snapshot.

Every batch is the maximal *prefix* of the remaining queue whose windows
are pairwise disjoint.  Concatenating the batches reproduces the input
order exactly, so routing the plan serially is the unmodified sequential
loop -- the determinism anchor the differential tests compare every
backend against.

Windows are a planning heuristic only -- the executor's speculative
validation (explored-region vs committed-delta boxes, with sequential
fallback) is what guarantees bit-identical results even when a search
wanders outside its window.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.design import Net
from repro.grid import CellWindow, RoutingGrid


def windows_overlap(a: CellWindow, b: CellWindow) -> bool:
    """Return ``True`` when the two inclusive cell windows intersect."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


class BatchScheduler:
    """Partitions a net queue into spatially disjoint batches.

    Parameters
    ----------
    grid:
        The routing grid (supplies the cell geometry and the canonical
        interaction radius).
    max_batch:
        Optional cap on nets per batch (``None`` = unbounded).
    """

    def __init__(self, grid: RoutingGrid, max_batch: Optional[int] = None) -> None:
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.grid = grid
        self.max_batch = max_batch
        #: Interaction reach in cells at the grid-wide interaction radius.
        self.reach_cells = grid.interaction_reach_cells(grid.interaction_radius())

    # ------------------------------------------------------------------

    def net_window(self, net: Net, expand_cells: Optional[int] = None) -> CellWindow:
        """Return the net's planar cell window.

        The pin bounding box mapped onto grid columns/rows (covering every
        cell its metal could seed) and expanded by *expand_cells* (default:
        the interaction reach), clamped to the grid.
        """
        if expand_cells is None:
            expand_cells = self.reach_cells
        grid = self.grid
        box = net.bounding_box()
        pitch = grid.pitch
        col_lo = (box.xlo - grid.origin.x) // pitch - expand_cells
        col_hi = -(-(box.xhi - grid.origin.x) // pitch) + expand_cells
        row_lo = (box.ylo - grid.origin.y) // pitch - expand_cells
        row_hi = -(-(box.yhi - grid.origin.y) // pitch) + expand_cells
        return (
            max(0, col_lo),
            max(0, row_lo),
            min(grid.num_cols - 1, col_hi),
            min(grid.num_rows - 1, row_hi),
        )

    def plan(self, nets: Sequence[Net]) -> List[List[Net]]:
        """Partition *nets* into maximal disjoint prefix batches.

        Every net appears in exactly one batch, and the batches
        concatenate back to the input order.
        """
        batches: List[List[Net]] = []
        current: List[Net] = []
        current_windows: List[CellWindow] = []
        for net in nets:
            window = self.net_window(net)
            full = self.max_batch is not None and len(current) >= self.max_batch
            if current and (
                full or any(windows_overlap(window, other) for other in current_windows)
            ):
                batches.append(current)
                current, current_windows = [], []
            current.append(net)
            current_windows.append(window)
        if current:
            batches.append(current)
        return batches
