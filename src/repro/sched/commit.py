"""Route-commit sinks: recorded commit logs and the route commit.

Every router separates *computing* a net's route (searches, backtraces --
pure reads of the grid) from *committing* it (occupancy and mask-color
writes).  ``compute_route`` sends its commits to a sink:

* :class:`RecordingSink` appends the operations, in order, to a *commit
  log* and leaves the grid untouched, so every route is computed against
  a grid that holds none of the net's own metal.  The campaign's
  ``route_net``, the pool parent and the keep-best restore then apply the
  log once through :func:`apply_route_ops`, that is
  :meth:`RoutingGrid.commit_route`: one pass that sets occupancy and
  colours and stamps colour pressure;
* :class:`GridSink` applies each commit to the grid at once, one
  :meth:`RoutingGrid.apply_op` per vertex.  No router uses it.

The commit log is a slice of the :mod:`repro.journal` op model: a
:class:`RecordingSink` records exactly the ``("occupy", net_id, index)`` /
``("color", net_id, index, color)`` op tuples that :class:`GridSink`'s grid
calls would have pushed through :meth:`RoutingGrid.apply_op`.  The route
commit leaves the grid and the attached journal exactly as applying them
one by one would.  Ops
are flat tuples of ints, so logs cross process boundaries (pool workers
pickle them back to the parent) without custom reducers.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geometry import GridPoint
from repro.grid import RoutingGrid
from repro.journal import OP_COLOR, OP_OCCUPY, Op

#: One commit operation -- a :mod:`repro.journal` op (``occupy``/``color``).
CommitOp = Op


class GridSink:
    """Commit sink that applies every operation to the grid immediately."""

    __slots__ = ("grid", "net_name")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        self.grid = grid
        self.net_name = net_name

    def occupy(self, vertex: GridPoint) -> None:
        """Record the net's metal at *vertex* on the grid."""
        self.grid.occupy(vertex, self.net_name)

    def set_color(self, vertex: GridPoint, color: int) -> None:
        """Color the net's metal at *vertex* on the grid."""
        self.grid.set_vertex_color(vertex, self.net_name, color)


class RecordingSink:
    """Commit sink that records journal ops (in order) instead of applying.

    The grid is only consulted for geometry (vertex -> flat index) and the
    net id -- never mutated; :attr:`ops` is the commit log to apply with
    :func:`apply_route_ops`.  The recorded ops mirror :class:`GridSink`
    gating exactly (out-of-bounds commits are dropped, invalid mask colors
    raise).
    """

    __slots__ = ("grid", "net_id", "ops")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        self.grid = grid
        # Interning here (not at commit) keeps id assignment in routing
        # order.
        self.net_id = grid.net_id(net_name)
        self.ops: List[CommitOp] = []

    def occupy(self, vertex: GridPoint) -> None:
        """Append an occupancy op to the log."""
        if self.grid.in_bounds(vertex):
            self.ops.append((OP_OCCUPY, self.net_id, self.grid.index_of(vertex)))

    def set_color(self, vertex: GridPoint, color: int) -> None:
        """Append a mask-color op to the log."""
        if not 0 <= color <= 2:
            raise ValueError(f"TPL mask color must be 0, 1 or 2, got {color}")
        if self.grid.in_bounds(vertex):
            self.ops.append((OP_COLOR, self.net_id, self.grid.index_of(vertex), color))


def apply_route_ops(grid: RoutingGrid, ops: Sequence[CommitOp]) -> None:
    """Commit one net's recorded commit log to *grid*.

    :meth:`RoutingGrid.commit_route`: the grid state and the journal
    entries equal those of applying the ops one by one, and a net that
    still holds metal on the grid is refused.
    """
    grid.commit_route(ops)
