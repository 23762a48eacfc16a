"""Route-commit sinks: immediate grid commits vs recorded journal ops.

Every router separates *computing* a net's route (searches, backtraces --
pure reads of the grid) from *committing* it (occupancy and mask-color
writes).  The commit side goes through a sink so the same ``compute_route``
body serves both execution modes:

* :class:`GridSink` applies each commit to the grid immediately -- the
  sequential rip-up loop, the deterministic batch backend and the
  campaign's keep-best restore use it;
* :class:`RecordingSink` only appends the operations, in order, to a
  *commit log*.  The speculative pool backend routes whole batches against
  a frozen grid snapshot this way and later replays accepted logs through
  :func:`apply_route_ops`.

Since the journal refactor the commit log **is** a slice of the
:mod:`repro.journal` op model: a :class:`RecordingSink` records exactly the
``("occupy", net_id, index)`` / ``("color", net_id, index, color)`` op
tuples that :class:`GridSink`'s grid calls would have pushed through
:meth:`RoutingGrid.apply_op`, and :func:`apply_route_ops` replays them
through that same choke point -- so deferred and immediate commits produce
identical grid state, fire identical delta-listener events, and land in the
attached journal identically.  Ops are flat tuples of ints, so logs cross
process boundaries (pool workers pickle them back to the parent) without
custom reducers.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geometry import GridPoint
from repro.grid import RoutingGrid
from repro.journal import OP_COLOR, OP_OCCUPY, Op, replay_ops

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
    net id -- never mutated; :attr:`ops` is the commit log to replay with
    :func:`apply_route_ops` once the route is accepted.  The recorded ops
    mirror :class:`GridSink` gating exactly (out-of-bounds commits are
    dropped, invalid mask colors raise), so replaying the log is
    bit-equivalent to having committed immediately.
    """

    __slots__ = ("grid", "net_id", "ops")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        self.grid = grid
        # Interning here (not at replay) keeps id assignment in routing
        # order, matching what the GridSink path would have produced.
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
    """Replay a recorded commit log onto *grid*, in order.

    The ops flow through :meth:`RoutingGrid.apply_op` -- the same choke
    point immediate commits use -- so deferred and immediate commits
    produce identical grid state, identical delta-listener events, and
    identical journal entries.
    """
    replay_ops(grid, ops)
