"""Color conflict detection and counting.

A color conflict exists when two pieces of metal that belong to different
nets (or to a net and a pre-colored obstacle) sit on the **same mask** and
closer than the same-mask spacing ``Dcolor`` (paper Section II-A).  Shapes
closer than the hard minimum spacing conflict regardless of mask.

Counting granularity matters for comparability with the paper's tables, so
conflicts are counted between **features**: maximal connected runs of
same-net, same-layer, same-mask routed metal.  Each offending feature pair
counts once, which is how layout decomposers (OpenMPL) report conflicts as
well -- the same counter is applied to every router and baseline in this
repository.

Proximity is integer math on the track lattice.  Every vertex's metal is
the same ``extent = 2 * (wire_width // 2)`` square centred on a track
crossing, so two vertices ``cheb`` tracks apart (Chebyshev distance over
``col`` / ``row``) have the gap ``max(0, cheb * pitch - extent)``, and
"gap < d" is "``cheb <= k``" with ``k = (d + extent - 1) // pitch``
(:meth:`RoutingGrid.track_reach`).  The full scan keys each layer's
feature vertices by track, probes the ``(2k+1)^2`` window around every
feature vertex for ``d = max(Dcolor, min_spacing)``, and reports each pair
once, at the first vertex of the lower-id feature that meets the other; so
conflicts come out in probe order.  A feature vertex sits closer than
``Dcolor`` to an obstacle when its track crossing lies in the obstacle's
``rect.expanded(Dcolor + wire_width // 2 - 1)`` (:meth:`RoutingGrid.track_window`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.design import Design
from repro.geometry import GridPoint
from repro.grid import NetRoute, RoutingGrid, RoutingSolution

#: ``(layer, mask) -> [(pseudo-net name, col_lo, col_hi, row_lo, row_hi)]``
#: per pre-colored obstacle (:meth:`ConflictChecker._obstacle_window_table`).
ObstacleWindows = Dict[Tuple[int, int], List[Tuple[str, int, int, int, int]]]


@dataclass(frozen=True)
class Feature:
    """A maximal connected run of same-mask metal of one net on one layer."""

    net_name: str
    layer: int
    color: int
    vertices: FrozenSet[GridPoint]

    @property
    def size(self) -> int:
        """Return the number of grid vertices in the feature."""
        return len(self.vertices)


@dataclass(frozen=True)
class ColorConflict:
    """One conflicting pair of features (or a feature and a fixed obstacle)."""

    net_a: str
    net_b: str
    layer: int
    color: int
    location: GridPoint
    kind: str = "same-mask"  # or "min-spacing"


@dataclass
class ConflictReport:
    """Aggregated conflict information for a routing solution."""

    conflicts: List[ColorConflict] = field(default_factory=list)
    uncolored_vertices: int = 0

    @property
    def conflict_count(self) -> int:
        """Return the number of conflicts."""
        return len(self.conflicts)

    def nets_involved(self) -> Set[str]:
        """Return every net name participating in at least one conflict."""
        nets: Set[str] = set()
        for conflict in self.conflicts:
            if not conflict.net_a.startswith("__fixed__"):
                nets.add(conflict.net_a)
            if not conflict.net_b.startswith("__fixed__"):
                nets.add(conflict.net_b)
        return nets

    def conflict_locations(self) -> List[GridPoint]:
        """Return one representative grid location per conflict."""
        return [conflict.location for conflict in self.conflicts]

    def counts_by_class(self) -> Dict[str, int]:
        """Return the conflict count split into strap, same-mask and min-spacing.

        A strap conflict is one against a pre-colored obstacle (``net_b``
        starts with ``__fixed__``); the other two classes are the net-to-net
        kinds.  The three counts sum to :attr:`conflict_count`.
        """
        counts = {"strap": 0, "same-mask": 0, "min-spacing": 0}
        for conflict in self.conflicts:
            if conflict.net_b.startswith("__fixed__"):
                counts["strap"] += 1
            else:
                counts[conflict.kind] += 1
        return counts


class ConflictChecker:
    """Counts color conflicts of a colored :class:`RoutingSolution`."""

    def __init__(self, design: Design, grid: RoutingGrid) -> None:
        self.design = design
        self.grid = grid
        self.rules = grid.rules
        self._obstacle_windows: Optional[ObstacleWindows] = None

    # ------------------------------------------------------------------

    def extract_features(self, solution: RoutingSolution) -> List[Feature]:
        """Split every routed net into same-mask connected features."""
        features: List[Feature] = []
        for route in solution.routes.values():
            features.extend(self._net_features(route))
        return features

    def _net_features(self, route: NetRoute) -> List[Feature]:
        """Split one route into features (see :meth:`_net_groups`).

        Each feature's vertex set is filled in ``vertex_colors`` order, so
        its iteration order -- the probe order of :meth:`check`, hence the
        conflict locations -- depends only on the route.
        """
        name = route.net_name
        return [
            Feature(net_name=name, layer=layer, color=color, vertices=frozenset(set(members)))
            for layer, color, members in self._net_groups(route)
        ]

    def _net_groups(self, route: NetRoute) -> List[Tuple[int, int, List[GridPoint]]]:
        """Return ``(layer, color, members)`` per feature of *route*.

        A union-find over flat vertex indices: same-layer route edges join
        colored vertices of equal mask.  Groups come in the order their
        first member appears in ``vertex_colors``, and so do the members
        of each group.  The incremental checker extracts dirty nets here
        too.
        """
        vertices = route.vertices
        index_of = self.grid.index_of
        color_at: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        keyed: List[Tuple[int, GridPoint]] = []
        for vertex, color in route.vertex_colors.items():
            if vertex in vertices:
                index = index_of(vertex)
                color_at[index] = color
                parent[index] = index
                keyed.append((index, vertex))
        color_get = color_at.get
        for a, b in route.edges:
            if a.layer != b.layer:
                continue
            ia = index_of(a)
            color_a = color_get(ia)
            if color_a is None:
                continue
            ib = index_of(b)
            if color_get(ib) != color_a:
                continue
            while parent[ia] != ia:
                parent[ia] = parent[parent[ia]]
                ia = parent[ia]
            while parent[ib] != ib:
                parent[ib] = parent[parent[ib]]
                ib = parent[ib]
            if ia != ib:
                parent[ib] = ia
        groups: Dict[int, List[GridPoint]] = {}
        for index, vertex in keyed:
            root = index
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            members = groups.get(root)
            if members is None:
                groups[root] = [vertex]
            else:
                members.append(vertex)
        plane_size = self.grid.plane_size
        return [
            (root // plane_size, color_at[root], members) for root, members in groups.items()
        ]

    # ------------------------------------------------------------------

    def check(self, solution: RoutingSolution) -> ConflictReport:
        """Return the conflict report of *solution*.

        Conflicts counted:

        * two features of different nets, same layer, same mask, closer than
          ``Dcolor`` (the layer's color spacing),
        * two features of different nets, same layer, closer than the hard
          minimum spacing regardless of mask,
        * a feature against a pre-colored obstacle under the same rules.

        Vertices that were routed but never received a mask are reported in
        :attr:`ConflictReport.uncolored_vertices` -- an incompletely colored
        solution should never look conflict-free for free.
        """
        report = ConflictReport()
        features: List[Feature] = []
        for route in solution.routes.values():
            net_features = self._net_features(route)
            features.extend(net_features)
            report.uncolored_vertices += self._route_uncolored(route, net_features)

        # Per layer: track key -> the ids of the features covering that
        # vertex, in insertion order (a short puts several on one vertex).
        owners_by_layer: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
        windows: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        for feature_id, feature in enumerate(features):
            layer = feature.layer
            if layer not in windows:
                windows[layer] = self.grid.track_probe(
                    max(self.rules.color_spacing_on(layer), self.rules.min_spacing)
                )
            stride = windows[layer][0]
            owners = owners_by_layer[layer]
            for vertex in feature.vertices:
                owners.setdefault(vertex.col * stride + vertex.row, []).append(feature_id)

        for feature_id, feature in enumerate(features):
            layer = feature.layer
            stride, window = windows[layer]
            owners = owners_by_layer[layer]
            dcolor = self.rules.color_spacing_on(layer)
            net_name = feature.net_name
            met: Set[int] = set()
            for vertex in feature.vertices:
                base = vertex.col * stride + vertex.row
                for delta in window:
                    ids = owners.get(base + delta)
                    if ids is None:
                        continue
                    for other_id in ids:
                        # Lower ids already met this pair from their side.
                        if other_id <= feature_id or other_id in met:
                            continue
                        other = features[other_id]
                        if other.net_name == net_name:
                            continue
                        met.add(other_id)
                        conflict = self._classify_pair(feature, other, vertex, dcolor)
                        if conflict is not None:
                            report.conflicts.append(conflict)
        report.conflicts.extend(self._obstacle_conflicts(features))
        return report

    def count(self, solution: RoutingSolution) -> int:
        """Return only the conflict count of *solution*."""
        return self.check(solution).conflict_count

    # ------------------------------------------------------------------

    def _classify_pair(
        self,
        feature: Feature,
        other: Feature,
        location: GridPoint,
        dcolor: int,
    ) -> Optional[ColorConflict]:
        distance = self._feature_distance(feature, other)
        if distance < self.rules.min_spacing:
            return ColorConflict(
                net_a=feature.net_name,
                net_b=other.net_name,
                layer=feature.layer,
                color=feature.color,
                location=location,
                kind="min-spacing",
            )
        if feature.color == other.color and distance < dcolor:
            return ColorConflict(
                net_a=feature.net_name,
                net_b=other.net_name,
                layer=feature.layer,
                color=feature.color,
                location=location,
                kind="same-mask",
            )
        return None

    def _feature_distance(self, feature: Feature, other: Feature) -> int:
        # Every vertex rect is the same wire-width square centred on a
        # uniform track lattice, so the L-infinity rect gap reduces to
        # ``max(0, chebyshev(col, row) * pitch - wire_width)`` -- the gap is
        # monotone in the per-axis track distance, making the minimum over
        # vertex pairs the gap of the minimum Chebyshev distance.  Pure
        # integer arithmetic; no Rect/Interval objects on this hot path.
        if not feature.vertices or not other.vertices:
            return 1 << 30
        pitch = self.grid.pitch
        extent = 2 * max(self.rules.wire_width // 2, 0)
        others = other.vertices
        best = None
        for vertex in feature.vertices:
            col, row = vertex.col, vertex.row
            for other_vertex in others:
                dcol = col - other_vertex.col
                if dcol < 0:
                    dcol = -dcol
                drow = row - other_vertex.row
                if drow < 0:
                    drow = -drow
                chebyshev = dcol if dcol > drow else drow
                if best is None or chebyshev < best:
                    best = chebyshev
                    if best * pitch <= extent:
                        return 0
        distance = best * pitch - extent
        return distance if distance > 0 else 0

    def _obstacle_window_table(self) -> ObstacleWindows:
        """Return ``(layer, mask) -> [(name, col_lo, col_hi, row_lo, row_hi)]``, cached.

        One entry per pre-colored obstacle, in design order: a feature
        vertex inside the track window sits closer than ``Dcolor`` to the
        obstacle.  The design's obstacles never change, so the table is
        built once per checker.
        """
        if self._obstacle_windows is None:
            windows: ObstacleWindows = defaultdict(list)
            for name, obstacle in self.design.fixed_color_nets():
                window = self.grid.track_window(
                    obstacle.rect, self.rules.color_spacing_on(obstacle.layer)
                )
                if window is not None:
                    windows[(obstacle.layer, obstacle.color)].append((name, *window))
            self._obstacle_windows = windows
        return self._obstacle_windows

    def _obstacle_conflicts(self, features: Iterable[Feature]) -> List[ColorConflict]:
        conflicts: List[ColorConflict] = []
        windows = self._obstacle_window_table()
        for feature in features:
            for name, col_lo, col_hi, row_lo, row_hi in windows.get(
                (feature.layer, feature.color), ()
            ):
                for vertex in feature.vertices:
                    if col_lo <= vertex.col <= col_hi and row_lo <= vertex.row <= row_hi:
                        conflicts.append(
                            ColorConflict(
                                net_a=feature.net_name,
                                net_b=name,
                                layer=feature.layer,
                                color=feature.color,
                                location=vertex,
                                kind="same-mask",
                            )
                        )
                        break
        return conflicts

    def _route_uncolored(self, route: NetRoute, features: List[Feature]) -> int:
        """Return how many TPL-layer vertices of a routed *route* carry no mask.

        *features* are the route's :meth:`_net_features`, which hold exactly
        its colored vertices, so the count is the route's TPL-layer vertex
        total minus the features' TPL-layer sizes.
        """
        if not route.routed:
            return 0
        layers = self.design.tech.layers
        total = sum(1 for vertex in route.vertices if layers[vertex.layer].tpl)
        return total - sum(feature.size for feature in features if layers[feature.layer].tpl)
