"""Routing results: per-net routed trees, colors, stitches, and solutions.

Every router in the repository (plain detailed router, Mr.TPL, DAC-2012
baseline) emits the same result structures so the evaluation code and the
benchmark harnesses can score them uniformly.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from repro.geometry import GridPoint

#: Process-global monotone revision source for :class:`NetRoute`.  Every
#: constructed (or unpickled) route gets the next value, so two distinct
#: route objects can never share a revision -- unlike ``id()``, which the
#: allocator happily reuses once the old object is collected.
_route_revisions = itertools.count(1)


@dataclass(frozen=True)
class Stitch:
    """A mask change between two electrically connected, adjacent vertices.

    Stitches are legal but undesirable: the paper's objective minimises the
    weighted sum of conflicts and stitches because stitches reduce yield.
    """

    net_name: str
    a: GridPoint
    b: GridPoint

    def __post_init__(self) -> None:
        # Canonical ordering so the same physical stitch hashes identically.
        if self.b < self.a:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)


@dataclass
class NetRoute:
    """The routed tree of a single net, stored on flat vertex indices.

    A route addresses vertices by the grid's flat index
    ``(layer * num_cols + col) * num_rows + row``
    (:meth:`~repro.grid.RoutingGrid.index_of`), so flat index order equals
    ``GridPoint`` order.  Routers, the commit log and the checkers read the
    index storage; :attr:`vertices`, :attr:`edges` and
    :attr:`vertex_colors` are read-only ``GridPoint`` views for I/O, digests
    and tests, built per call.

    Attributes
    ----------
    net_name:
        Name of the routed net.
    dims:
        ``(num_cols, num_rows)`` of the grid the indices address
        (:attr:`~repro.grid.RoutingGrid.route_dims`).
    nodes:
        Flat indices of every vertex covered by the net's metal (including
        pin access vertices that anchor the tree).
    node_edges:
        Adjacent index pairs used by the route, each stored ``(lo, hi)``;
        together with ``nodes`` they describe the routed tree (or forest
        while routing is partial).
    node_colors:
        Final mask per index (0=red/mask1, 1=green/mask2, 2=blue/mask3), in
        insertion order, which the conflict checkers' feature order follows.
        Vertices without an entry are uncolored, which the evaluator
        reports as defects rather than silently accepting.
    revision:
        Process-unique monotone stamp assigned at construction and
        re-stamped by :meth:`set_node_color`.  The incremental checkers
        learn which nets changed by comparing it alone: a replaced route
        object (rip-up & reroute, snapshot restore) or an in-place recolour
        both read as a new revision -- identity (``id()``) is unusable
        because CPython reuses addresses of collected routes.  Excluded
        from equality; re-stamped on unpickle so a route shipped across a
        process boundary always reads as replaced (a conservative extra
        rescan, never a missed one).
    """

    net_name: str
    dims: Tuple[int, int]
    nodes: Set[int] = field(default_factory=set)
    node_edges: Set[Tuple[int, int]] = field(default_factory=set)
    node_colors: Dict[int, int] = field(default_factory=dict)
    routed: bool = True
    failure_reason: str = ""
    revision: int = field(
        default_factory=lambda: next(_route_revisions), compare=False, repr=False
    )

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__dict__["revision"] = next(_route_revisions)

    # -- flat index <-> GridPoint ---------------------------------------------

    def node_of(self, vertex: GridPoint) -> int:
        """Return the flat index of *vertex* on this route's grid."""
        num_cols, num_rows = self.dims
        return (vertex.layer * num_cols + vertex.col) * num_rows + vertex.row

    def vertex_at(self, node: int) -> GridPoint:
        """Return the :class:`GridPoint` of flat index *node*."""
        num_cols, num_rows = self.dims
        layer, rem = divmod(node, num_cols * num_rows)
        col, row = divmod(rem, num_rows)
        return GridPoint(layer, col, row)

    # -- construction on flat indices ---------------------------------------

    def add_node_path(self, path: Sequence[int]) -> None:
        """Add an index path: every vertex, and consecutive distinct ones as edges."""
        if not path:
            return
        self.nodes.update(path)
        edges = self.node_edges
        for a, b in zip(path, path[1:]):
            if a < b:
                edges.add((a, b))
            elif b < a:
                edges.add((b, a))

    def set_node_color(self, node: int, color: int) -> None:
        """Assign the final mask *color* to *node* and re-stamp :attr:`revision`."""
        if not 0 <= color <= 2:
            raise ValueError(f"invalid mask color {color}")
        self.nodes.add(node)
        self.node_colors[node] = color
        self.revision = next(_route_revisions)

    def set_node_colors(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Assign every ``(node, color)`` of *pairs* in order, with one new :attr:`revision`.

        The route ends as one :meth:`set_node_color` call per pair leaves
        it, save for the revision count; an invalid mask raises before any
        change.
        """
        if any(not 0 <= color <= 2 for _, color in pairs):
            raise ValueError(f"invalid mask color in {list(pairs)}")
        self.nodes.update([node for node, _ in pairs])
        self.node_colors.update(pairs)
        self.revision = next(_route_revisions)

    # -- construction from GridPoints (I/O and tests) -------------------------

    def add_edge(self, a: GridPoint, b: GridPoint) -> None:
        """Add an edge (and its endpoints) to the route."""
        self.add_node_path([self.node_of(a), self.node_of(b)])

    def add_path(self, path: Sequence[GridPoint]) -> None:
        """Add a vertex path (consecutive vertices become edges)."""
        self.add_node_path([self.node_of(vertex) for vertex in path])

    def set_color(self, vertex: GridPoint, color: int) -> None:
        """Assign the final mask *color* to *vertex* (see :meth:`set_node_color`)."""
        self.set_node_color(self.node_of(vertex), color)

    # -- read-only GridPoint views (built per call) ----------------------------

    @property
    def vertices(self) -> FrozenSet[GridPoint]:
        """Return every route vertex as a :class:`GridPoint`."""
        vertex_at = self.vertex_at
        return frozenset(vertex_at(node) for node in self.nodes)

    @property
    def edges(self) -> FrozenSet[Tuple[GridPoint, GridPoint]]:
        """Return every route edge as an ordered ``(a, b)`` pair with ``a < b``."""
        vertex_at = self.vertex_at
        return frozenset((vertex_at(a), vertex_at(b)) for a, b in self.node_edges)

    @property
    def vertex_colors(self) -> Mapping[GridPoint, int]:
        """Return the final masks keyed by :class:`GridPoint`, in insertion order."""
        vertex_at = self.vertex_at
        return MappingProxyType(
            {vertex_at(node): color for node, color in self.node_colors.items()}
        )

    # -- derived queries ------------------------------------------------------

    def _plane(self) -> int:
        num_cols, num_rows = self.dims
        return num_cols * num_rows

    def wirelength(self) -> int:
        """Return the routed wirelength in grid units (planar edges only)."""
        plane = self._plane()
        return sum(1 for a, b in self.node_edges if a // plane == b // plane)

    def via_count(self) -> int:
        """Return the number of vias (layer-changing edges)."""
        plane = self._plane()
        return sum(1 for a, b in self.node_edges if a // plane != b // plane)

    def _stitch_edges(self) -> List[Tuple[int, int]]:
        """Return every same-layer edge whose two ends carry different masks."""
        plane = self._plane()
        colors = self.node_colors
        stitched = []
        for a, b in self.node_edges:
            if a // plane != b // plane:
                continue
            color_a = colors.get(a)
            color_b = colors.get(b)
            if color_a is not None and color_b is not None and color_a != color_b:
                stitched.append((a, b))
        return stitched

    @property
    def stitches(self) -> FrozenSet[Stitch]:
        """Return the net's stitches, derived from its edges and masks.

        A stitch is a same-layer edge whose two ends carry different masks;
        an edge with an uncoloured end is none.  Built per call, so it
        always follows the route's current colours.
        """
        vertex_at = self.vertex_at
        return frozenset(
            Stitch(self.net_name, vertex_at(a), vertex_at(b)) for a, b in self._stitch_edges()
        )

    def stitch_count(self) -> int:
        """Return the number of stitches of this net (see :attr:`stitches`)."""
        return len(self._stitch_edges())

    def adjacency(self) -> Dict[int, List[int]]:
        """Return the adjacency map of the routed tree, on flat indices."""
        adj: Dict[int, List[int]] = defaultdict(list)
        for a, b in self.node_edges:
            adj[a].append(b)
            adj[b].append(a)
        return dict(adj)


@dataclass
class RoutingSolution:
    """The routed result for a whole design."""

    design_name: str
    routes: Dict[str, NetRoute] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    iterations: int = 0
    router_name: str = ""

    def add_route(self, route: NetRoute) -> None:
        """Insert or replace the route of ``route.net_name``."""
        self.routes[route.net_name] = route

    def route_of(self, net_name: str) -> NetRoute:
        """Return the route of *net_name* (raises ``KeyError`` if missing)."""
        return self.routes[net_name]

    def routed_nets(self) -> List[NetRoute]:
        """Return routes that completed successfully."""
        return [route for route in self.routes.values() if route.routed]

    def failed_nets(self) -> List[NetRoute]:
        """Return routes that failed (unrouted or partially routed)."""
        return [route for route in self.routes.values() if not route.routed]

    def total_wirelength(self) -> int:
        """Return the summed wirelength over all nets in grid units."""
        return sum(route.wirelength() for route in self.routes.values())

    def total_vias(self) -> int:
        """Return the summed via count over all nets."""
        return sum(route.via_count() for route in self.routes.values())

    def total_stitches(self) -> int:
        """Return the summed stitch count over all nets."""
        return sum(route.stitch_count() for route in self.routes.values())
