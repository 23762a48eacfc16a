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

Both sinks address vertices by flat index, as :class:`~repro.grid.NetRoute`
stores them.

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

from typing import Iterable, List, Sequence

from repro.grid import RoutingGrid
from repro.journal import OP_COLOR, OP_OCCUPY, Op

#: One commit operation -- a :mod:`repro.journal` op (``occupy``/``color``).
CommitOp = Op


class GridSink:
    """Commit sink that applies every operation to the grid immediately."""

    __slots__ = ("grid", "net_id")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        self.grid = grid
        self.net_id = grid.net_id(net_name)

    def occupy(self, node: int) -> None:
        """Record the net's metal at flat index *node* on the grid."""
        self.grid.apply_op((OP_OCCUPY, self.net_id, node))

    def occupy_all(self, nodes: Iterable[int]) -> None:
        """Record the net's metal at every flat index of *nodes* on the grid."""
        for node in nodes:
            self.occupy(node)

    def set_color(self, node: int, color: int) -> None:
        """Color the net's metal at flat index *node* on the grid."""
        if not 0 <= color <= 2:
            raise ValueError(f"TPL mask color must be 0, 1 or 2, got {color}")
        self.grid.apply_op((OP_COLOR, self.net_id, node, color))


class RecordingSink:
    """Commit sink that records journal ops (in order) instead of applying.

    The grid is only consulted for the net id -- never mutated; :attr:`ops`
    is the commit log to apply with :func:`apply_route_ops`.  Commits
    address vertices by flat index, as routes store them, so an op is
    appended as is; invalid mask colors raise, as :class:`GridSink`'s do.
    """

    __slots__ = ("net_id", "ops")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        # Interning here (not at commit) keeps id assignment in routing
        # order.
        self.net_id = grid.net_id(net_name)
        self.ops: List[CommitOp] = []

    def occupy(self, node: int) -> None:
        """Append an occupancy op for flat index *node* to the log."""
        self.ops.append((OP_OCCUPY, self.net_id, node))

    def occupy_all(self, nodes: Iterable[int]) -> None:
        """Append one occupancy op per flat index of *nodes*, in order."""
        net_id = self.net_id
        self.ops.extend([(OP_OCCUPY, net_id, node) for node in nodes])

    def set_color(self, node: int, color: int) -> None:
        """Append a mask-color op for flat index *node* to the log."""
        if not 0 <= color <= 2:
            raise ValueError(f"TPL mask color must be 0, 1 or 2, got {color}")
        self.ops.append((OP_COLOR, self.net_id, node, color))


def apply_route_ops(grid: RoutingGrid, ops: Sequence[CommitOp]) -> None:
    """Commit one net's recorded commit log to *grid*.

    :meth:`RoutingGrid.commit_route`: the grid state and the journal
    entries equal those of applying the ops one by one, and a net that
    still holds metal on the grid is refused.
    """
    grid.commit_route(ops)
