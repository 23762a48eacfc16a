"""Routing results: per-net routed trees, colors, stitches, and solutions.

Every router in the repository (plain detailed router, Mr.TPL, DAC-2012
baseline) emits the same result structures so the evaluation code and the
benchmark harnesses can score them uniformly.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.geometry import GridPoint, Point, Segment

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
    """The routed tree of a single net.

    Attributes
    ----------
    net_name:
        Name of the routed net.
    vertices:
        All grid vertices covered by the net's metal (including pin access
        vertices that anchor the tree).
    edges:
        Adjacent vertex pairs used by the route; together with ``vertices``
        they describe the routed tree (or forest while routing is partial).
    vertex_colors:
        Final mask assignment per vertex (0=red/mask1, 1=green/mask2,
        2=blue/mask3).  Vertices without an entry are uncolored, which the
        evaluator reports as defects rather than silently accepting.
    stitches:
        The mask changes introduced inside this net.
    revision:
        Process-unique monotone stamp assigned at construction and
        re-stamped by :meth:`set_color`.  The incremental checkers learn
        which nets changed by comparing it alone: a replaced route object
        (rip-up & reroute, snapshot restore) or an in-place recolour both
        read as a new revision -- identity (``id()``) is unusable because
        CPython reuses addresses of collected routes.  Excluded from
        equality; re-stamped on unpickle so a route shipped across a
        process boundary always reads as replaced (a conservative extra
        rescan, never a missed one).
    """

    net_name: str
    vertices: Set[GridPoint] = field(default_factory=set)
    edges: Set[Tuple[GridPoint, GridPoint]] = field(default_factory=set)
    vertex_colors: Dict[GridPoint, int] = field(default_factory=dict)
    stitches: Set[Stitch] = field(default_factory=set)
    routed: bool = True
    failure_reason: str = ""
    revision: int = field(
        default_factory=lambda: next(_route_revisions), compare=False, repr=False
    )

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__dict__["revision"] = next(_route_revisions)

    # -- construction -------------------------------------------------------

    def add_edge(self, a: GridPoint, b: GridPoint) -> None:
        """Add an edge (and its endpoints) to the route."""
        if a == b:
            self.vertices.add(a)
            return
        key = (a, b) if a < b else (b, a)
        self.edges.add(key)
        self.vertices.add(a)
        self.vertices.add(b)

    def add_path(self, path: List[GridPoint]) -> None:
        """Add a vertex path (consecutive vertices become edges)."""
        if not path:
            return
        self.vertices.add(path[0])
        for a, b in zip(path, path[1:]):
            self.add_edge(a, b)

    def set_color(self, vertex: GridPoint, color: int) -> None:
        """Assign the final mask *color* to *vertex* and re-stamp :attr:`revision`."""
        if not 0 <= color <= 2:
            raise ValueError(f"invalid mask color {color}")
        self.vertices.add(vertex)
        self.vertex_colors[vertex] = color
        self.revision = next(_route_revisions)

    def add_stitch(self, a: GridPoint, b: GridPoint) -> None:
        """Record a stitch between two adjacent vertices of this net."""
        self.stitches.add(Stitch(self.net_name, a, b))

    # -- derived queries ------------------------------------------------------

    def wirelength(self) -> int:
        """Return the routed wirelength in grid units (planar edges only)."""
        return sum(1 for a, b in self.edges if a.layer == b.layer)

    def via_count(self) -> int:
        """Return the number of vias (layer-changing edges)."""
        return sum(1 for a, b in self.edges if a.layer != b.layer)

    def stitch_count(self) -> int:
        """Return the number of stitches recorded for this net."""
        return len(self.stitches)

    def adjacency(self) -> Dict[GridPoint, List[GridPoint]]:
        """Return the adjacency map of the routed tree."""
        adj: Dict[GridPoint, List[GridPoint]] = defaultdict(list)
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return dict(adj)

    def recount_stitches(self) -> int:
        """Recompute stitches from the final vertex colors.

        A stitch exists on every same-layer edge whose endpoints carry
        different masks.  The recomputed set replaces the recorded one (the
        recorded set may be stale after rip-up & reroute).
        """
        stitches: Set[Stitch] = set()
        for a, b in self.edges:
            if a.layer != b.layer:
                continue
            color_a = self.vertex_colors.get(a)
            color_b = self.vertex_colors.get(b)
            if color_a is None or color_b is None:
                continue
            if color_a != color_b:
                stitches.add(Stitch(self.net_name, a, b))
        self.stitches = stitches
        return len(stitches)

    def segments(self, grid: "object") -> List[Segment]:
        """Decompose the route into maximal straight wire segments.

        *grid* must provide ``physical_point(vertex)`` and the design rules
        (``rules.wire_width``); passing the :class:`RoutingGrid` keeps this
        module free of a circular import.
        """
        width = grid.rules.wire_width
        segments: List[Segment] = []
        horizontal_runs: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        vertical_runs: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for a, b in self.edges:
            if a.layer != b.layer:
                continue
            if a.row == b.row:
                horizontal_runs[(a.layer, a.row)].extend([a.col, b.col])
            else:
                vertical_runs[(a.layer, a.col)].extend([a.row, b.row])
        for (layer, row), cols in horizontal_runs.items():
            for lo, hi in _merge_runs(sorted(set(cols)), self._edge_lookup(layer, row, True)):
                p0 = grid.physical_point(GridPoint(layer, lo, row))
                p1 = grid.physical_point(GridPoint(layer, hi, row))
                segments.append(Segment(layer, p0, p1, width))
        for (layer, col), rows in vertical_runs.items():
            for lo, hi in _merge_runs(sorted(set(rows)), self._edge_lookup(layer, col, False)):
                p0 = grid.physical_point(GridPoint(layer, col, lo))
                p1 = grid.physical_point(GridPoint(layer, col, hi))
                segments.append(Segment(layer, p0, p1, width))
        return segments

    def _edge_lookup(self, layer: int, fixed: int, horizontal: bool):
        edge_set = set()
        for a, b in self.edges:
            if a.layer != layer or b.layer != layer:
                continue
            if horizontal and a.row == fixed and b.row == fixed:
                edge_set.add((min(a.col, b.col), max(a.col, b.col)))
            elif not horizontal and a.col == fixed and b.col == fixed:
                edge_set.add((min(a.row, b.row), max(a.row, b.row)))

        def connected(lo: int, hi: int) -> bool:
            return (lo, hi) in edge_set

        return connected


def _merge_runs(indices: List[int], connected) -> Iterator[Tuple[int, int]]:
    """Merge sorted track indices into maximal runs of consecutive connected steps."""
    if not indices:
        return
    start = prev = indices[0]
    for value in indices[1:]:
        if value == prev + 1 and connected(prev, value):
            prev = value
            continue
        yield start, prev
        start = prev = value
    yield start, prev


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

    def colored_vertex_fraction(self) -> float:
        """Return the fraction of routed vertices that carry a final mask."""
        total = sum(len(route.vertices) for route in self.routes.values())
        if total == 0:
            return 1.0
        colored = sum(len(route.vertex_colors) for route in self.routes.values())
        return colored / total

    def vertex_ownership(self) -> Dict[GridPoint, Set[str]]:
        """Return, per vertex, the set of nets whose routes cover it."""
        ownership: Dict[GridPoint, Set[str]] = defaultdict(set)
        for route in self.routes.values():
            for vertex in route.vertices:
                ownership[vertex].add(route.net_name)
        return dict(ownership)
