"""Route-commit sinks: recorded route logs and the route commit.

Every router separates *computing* a net's route (searches, backtraces --
pure reads of the grid) from *committing* it (occupancy and mask-color
writes).  ``compute_route`` sends its commits to a sink:

* :class:`RecordingSink` appends the operations, in order, to a *route
  log* and leaves the grid untouched, so every route is computed against
  a grid that holds none of the net's own metal.  The campaign's
  ``route_net``, the batch executor and the keep-best restore then apply
  the log once through :func:`apply_route_ops`, that is
  :meth:`RoutingGrid.commit_route`: one pass that sets occupancy, paints
  each coloured vertex once with its last logged mask, and stamps the
  colour pressure of them all in one call (the native kernel's
  ``stamp_pressure`` when the search tier is native, else the grid's
  loop in the same order);
* :class:`GridSink` applies each commit to the grid at once, through the
  public mutators :meth:`RoutingGrid.occupy` /
  :meth:`RoutingGrid.set_vertex_color`.  No router uses it.

Both sinks address vertices by flat index, as :class:`~repro.grid.NetRoute`
stores them, and take a whole coloured path in one call: ``set_colors``
(a colour entry per vertex, in order; Mr.TPL follows it with one
``occupy_all``) or ``color_path`` (a colour then an occupancy entry per
vertex, in order; DAC-2012's).  A route log
holds ``("occupy", net_id, index)`` / ``("color", net_id, index, color)``
tuples (:data:`repro.grid.OP_OCCUPY` /
:data:`repro.grid.OP_COLOR`); the route commit leaves the grid exactly as
:class:`GridSink`'s calls would.  Logs are flat tuples of ints, so they
cross process boundaries (pool workers pickle them back to the parent,
and the parent ships the logs it committed down to the workers) without
custom reducers.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.grid import OP_COLOR, OP_OCCUPY, RoutingGrid

#: One route-log entry: ``("occupy", net_id, index)`` or
#: ``("color", net_id, index, color)``.
CommitOp = Tuple


class GridSink:
    """Commit sink that applies every operation to the grid immediately."""

    __slots__ = ("grid", "net_name")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        self.grid = grid
        self.net_name = net_name
        # Intern at construction, as RecordingSink does.
        grid.net_id(net_name)

    def occupy(self, node: int) -> None:
        """Record the net's metal at flat index *node* on the grid."""
        self.grid.occupy(self.grid.vertex_of(node), self.net_name)

    def occupy_all(self, nodes: Iterable[int]) -> None:
        """Record the net's metal at every flat index of *nodes* on the grid."""
        for node in nodes:
            self.occupy(node)

    def set_color(self, node: int, color: int) -> None:
        """Color the net's metal at flat index *node* on the grid."""
        self.grid.set_vertex_color(self.grid.vertex_of(node), self.net_name, color)

    def set_colors(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Color the net's metal at each ``(node, color)`` on the grid, in order."""
        for node, color in pairs:
            self.set_color(node, color)

    def color_path(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Colour, then occupy, the net's metal at each ``(node, color)``, in order."""
        for node, color in pairs:
            self.set_color(node, color)
            self.occupy(node)


class RecordingSink:
    """Commit sink that records a route log (in order) instead of applying.

    The grid is only consulted for the net id -- never mutated; :attr:`ops`
    is the route log to apply with :func:`apply_route_ops`.  Commits
    address vertices by flat index, as routes store them, so an entry is
    appended as is; invalid mask colors raise, as :class:`GridSink`'s do.
    """

    __slots__ = ("net_id", "ops")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        # Interning here (not at commit) keeps id assignment in routing
        # order.
        self.net_id = grid.net_id(net_name)
        self.ops: List[CommitOp] = []

    def occupy(self, node: int) -> None:
        """Append an occupancy entry for flat index *node* to the log."""
        self.ops.append((OP_OCCUPY, self.net_id, node))

    def occupy_all(self, nodes: Iterable[int]) -> None:
        """Append one occupancy entry per flat index of *nodes*, in order."""
        net_id = self.net_id
        self.ops.extend([(OP_OCCUPY, net_id, node) for node in nodes])

    def set_color(self, node: int, color: int) -> None:
        """Append a mask-color entry for flat index *node* to the log."""
        if not 0 <= color <= 2:
            raise ValueError(f"TPL mask color must be 0, 1 or 2, got {color}")
        self.ops.append((OP_COLOR, self.net_id, node, color))

    def set_colors(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Append one mask-color entry per ``(node, color)``, in order.

        One :meth:`set_color` per pair, in one extend; an invalid mask
        raises before the log changes.
        """
        if any(not 0 <= color <= 2 for _, color in pairs):
            raise ValueError(f"TPL mask colors must be 0, 1 or 2, got {list(pairs)}")
        net_id = self.net_id
        self.ops.extend([(OP_COLOR, net_id, node, color) for node, color in pairs])

    def color_path(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Append a colour then an occupancy entry per ``(node, color)``, in order.

        One :meth:`set_color` and one :meth:`occupy` per pair, in one
        extend; an invalid mask raises before the log changes.
        """
        if any(not 0 <= color <= 2 for _, color in pairs):
            raise ValueError(f"TPL mask colors must be 0, 1 or 2, got {list(pairs)}")
        net_id = self.net_id
        entries: List[CommitOp] = []
        for node, color in pairs:
            entries.append((OP_COLOR, net_id, node, color))
            entries.append((OP_OCCUPY, net_id, node))
        self.ops.extend(entries)


def apply_route_ops(grid: RoutingGrid, ops: Sequence[CommitOp]) -> None:
    """Commit one net's recorded route log to *grid*.

    :meth:`RoutingGrid.commit_route`: the grid ends as applying the entries
    one by one leaves it, and a net that still holds metal on the grid is
    refused.
    """
    grid.commit_route(ops)
