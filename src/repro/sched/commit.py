"""Route commits: the route log a net's route makes, and its one-pass commit.

Every router separates *computing* a net's route (searches, backtraces --
pure reads of the grid) from *committing* it (occupancy and mask-color
writes).  ``compute_route`` returns a :class:`~repro.grid.NetRoute` and
writes nothing, so every route is computed against a grid that holds none
of the net's own metal.  The route is the one record of what the net
leaves on the grid: :func:`route_log` derives the commit from it, and
:func:`apply_route_ops` -- that is :meth:`RoutingGrid.commit_route` --
applies it in one pass that sets occupancy, paints each coloured vertex
once with its mask, and stamps the colour pressure of them all in one call
(the native kernel's ``stamp_pressure`` when the search tier is native,
else the grid's loop in the same order).  The campaign's ``route_net``,
the keep-best restore and the batch executor's live and pool paths all
commit this way.

A route log holds ``("occupy", net_id, index)`` /
``("color", net_id, index, color)`` tuples (:data:`repro.grid.OP_OCCUPY` /
:data:`repro.grid.OP_COLOR`) on flat indices; the route commit leaves the
grid exactly as the per-vertex public mutators :meth:`RoutingGrid.occupy`
/ :meth:`RoutingGrid.set_vertex_color` would, one call per entry
(:class:`GridSink` makes those calls).  Logs are flat tuples of ints, so
they cross process boundaries without custom reducers: the pool parent
ships the logs it committed down to its workers.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.grid import OP_COLOR, OP_OCCUPY, NetRoute, RoutingGrid

#: One route-log entry: ``("occupy", net_id, index)`` or
#: ``("color", net_id, index, color)``.
CommitOp = Tuple


def route_log(grid: RoutingGrid, route: NetRoute) -> List[CommitOp]:
    """Return the route log that commits *route* to *grid*.

    One occupancy entry per vertex of the route -- of ``route.nodes`` when
    it is routed, of its coloured vertices only when it failed (a failed
    route keeps the metal of its coloured partial paths) -- then one colour
    entry per ``route.node_colors`` item, in order.  Interns the net, so a
    net is interned when its route is committed even if it holds no metal.
    """
    net_id = grid.net_id(route.net_name)
    colors = route.node_colors
    occupied = route.nodes if route.routed else colors
    log: List[CommitOp] = [(OP_OCCUPY, net_id, node) for node in occupied]
    log.extend([(OP_COLOR, net_id, node, color) for node, color in colors.items()])
    return log


class GridSink:
    """Applies single commits to the grid at once, through the public mutators.

    The per-vertex counterpart of a route log: :meth:`occupy` and
    :meth:`set_color` are :meth:`RoutingGrid.occupy` and
    :meth:`RoutingGrid.set_vertex_color` on flat indices.  No router uses it.
    """

    __slots__ = ("grid", "net_name")

    def __init__(self, grid: RoutingGrid, net_name: str) -> None:
        self.grid = grid
        self.net_name = net_name
        grid.net_id(net_name)

    def occupy(self, node: int) -> None:
        """Record the net's metal at flat index *node* on the grid."""
        self.grid.occupy(self.grid.vertex_of(node), self.net_name)

    def set_color(self, node: int, color: int) -> None:
        """Color the net's metal at flat index *node* on the grid."""
        self.grid.set_vertex_color(self.grid.vertex_of(node), self.net_name, color)


def apply_route_ops(grid: RoutingGrid, ops: Sequence[CommitOp]) -> None:
    """Commit one net's route log to *grid*.

    :meth:`RoutingGrid.commit_route`: the grid ends as applying the entries
    one by one leaves it, and a net that still holds metal on the grid is
    refused.
    """
    grid.commit_route(ops)
