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
repository.  A :class:`Feature` is one integer record on flat vertex
indices; the full scan here and the rip-up loop's
:class:`~repro.check.IncrementalConflictChecker` build, classify and
anchor features with the same routines of :class:`ConflictChecker`.

Proximity is integer math on the track lattice.  Every vertex's metal is
the same ``extent = 2 * (wire_width // 2)`` square centred on a track
crossing, so two vertices ``cheb`` tracks apart (Chebyshev distance over
``col`` / ``row``) have the gap ``max(0, cheb * pitch - extent)``, and
"gap < d" is "``cheb <= k``" with ``k = (d + extent - 1) // pitch``
(:meth:`RoutingGrid.track_reach`).  The full scan keys each layer's
feature vertices by track, probes the ``(2k+1)^2`` window around every
feature vertex for ``d = max(Dcolor, min_spacing)``, and reports each pair
once, from the lower-id feature.  A pair conflict is located by
:meth:`ConflictChecker._pair_anchor`: the feature's vertex nearest the
partner's track box.  A feature vertex sits closer than ``Dcolor`` to an
obstacle when its track crossing lies in the obstacle's
``rect.expanded(Dcolor + wire_width // 2 - 1)``
(:meth:`RoutingGrid.track_window`); the full scan locates such a conflict
at the feature's lowest flat index inside that window.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.design import Design
from repro.geometry import GridPoint
from repro.grid import NetRoute, RoutingGrid, RoutingSolution

#: ``(layer, mask) -> [(pseudo-net name, col_lo, col_hi, row_lo, row_hi)]``
#: per pre-colored obstacle (:meth:`ConflictChecker._obstacle_window_table`).
ObstacleWindows = Dict[Tuple[int, int], List[Tuple[str, int, int, int, int]]]


class Feature(NamedTuple):
    """A maximal connected run of same-mask metal of one net on one layer.

    ``members`` are the flat vertex indices in extraction order (see
    :meth:`ConflictChecker._net_groups`); ``indices`` holds them sorted,
    and ``cols`` / ``rows`` their track coordinates in that sorted order;
    ``box`` is the track bounding box ``(col_lo, col_hi, row_lo, row_hi)``.
    """

    net_name: str
    layer: int
    color: int
    members: List[int]
    indices: array
    cols: Tuple[int, ...]
    rows: Tuple[int, ...]
    box: Tuple[int, int, int, int]


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

    def conflict_nodes(self, grid: RoutingGrid) -> List[int]:
        """Return the flat index of each conflict's representative location on *grid*.

        In report order, repeats kept, locations off the grid dropped: the
        rip-up step's history bump in one
        :meth:`~repro.grid.RoutingGrid.add_history_nodes` call, equal to one
        ``add_history`` per location.
        """
        index_of, in_bounds = grid.index_of, grid.in_bounds
        locations = [conflict.location for conflict in self.conflicts]
        return [index_of(location) for location in locations if in_bounds(location)]

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
        # Per layer: (min-spacing reach, Dcolor reach) in tracks, and the
        # larger of the two, beyond which no feature pair can conflict.
        self._reaches = [
            (
                grid.track_reach(self.rules.min_spacing),
                grid.track_reach(self.rules.color_spacing_on(layer)),
            )
            for layer in range(grid.num_layers)
        ]
        self._pair_reach = [max(reaches) for reaches in self._reaches]
        self._tpl_layers = tuple(layer.tpl for layer in design.tech.layers)
        # A track distance up to this means the two metal squares touch.
        self._touch = grid.track_reach(1)

    # ------------------------------------------------------------------

    def extract_features(self, solution: RoutingSolution) -> List[Feature]:
        """Split every routed net into same-mask connected features."""
        features: List[Feature] = []
        for route in solution.routes.values():
            features.extend(self._net_features(route))
        return features

    def _net_features(self, route: NetRoute) -> List[Feature]:
        """Split one route into :class:`Feature` records (see :meth:`_net_groups`)."""
        name = route.net_name
        plane_size, num_rows = self.grid.plane_size, self.grid.num_rows
        features: List[Feature] = []
        for layer, color, members in self._net_groups(route):
            indices = array("q", sorted(members))
            base = layer * plane_size
            cols = []
            rows = []
            for index in indices:
                col, row = divmod(index - base, num_rows)
                cols.append(col)
                rows.append(row)
            features.append(
                Feature(
                    name,
                    layer,
                    color,
                    members,
                    indices,
                    tuple(cols),
                    tuple(rows),
                    # Sorted indices of one layer run column-major.
                    (cols[0], cols[-1], min(rows), max(rows)),
                )
            )
        return features

    def _net_groups(self, route: NetRoute) -> List[Tuple[int, int, List[int]]]:
        """Return ``(layer, color, member flat indices)`` per feature of *route*.

        A union-find over the route's flat vertex indices: same-layer route
        edges join colored vertices of equal mask.  Groups come in the
        order their first member appears in ``node_colors``, and so do the
        members of each group.
        """
        nodes = route.nodes
        color_at: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        keyed: List[int] = []
        for node, color in route.node_colors.items():
            if node in nodes:
                color_at[node] = color
                parent[node] = node
                keyed.append(node)
        color_get = color_at.get
        plane_size = self.grid.plane_size
        for ia, ib in route.node_edges:
            if ia // plane_size != ib // plane_size:
                continue
            color_a = color_get(ia)
            if color_a is None or color_get(ib) != color_a:
                continue
            while parent[ia] != ia:
                parent[ia] = parent[parent[ia]]
                ia = parent[ia]
            while parent[ib] != ib:
                parent[ib] = parent[parent[ib]]
                ib = parent[ib]
            if ia != ib:
                parent[ib] = ia
        groups: Dict[int, List[int]] = {}
        for node in keyed:
            root = node
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            members = groups.get(root)
            if members is None:
                groups[root] = [node]
            else:
                members.append(node)
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
            for col, row in zip(feature.cols, feature.rows):
                owners.setdefault(col * stride + row, []).append(feature_id)

        conflicts = report.conflicts
        for feature_id, feature in enumerate(features):
            stride, window = windows[feature.layer]
            owners = owners_by_layer[feature.layer]
            net_name = feature.net_name
            met: Set[int] = set()
            for col, row in zip(feature.cols, feature.rows):
                base = col * stride + row
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
                        conflict = self._pair_conflict(feature, other)
                        if conflict is not None:
                            conflicts.append(conflict)
        for feature in features:
            conflicts.extend(self._obstacle_conflicts(feature))
        return report

    def count(self, solution: RoutingSolution) -> int:
        """Return only the conflict count of *solution*."""
        return self.check(solution).conflict_count

    # ------------------------------------------------------------------

    def _net_pair_conflicts(
        self, features: List[Feature], partner_features: List[Feature]
    ) -> List[ColorConflict]:
        """Return the conflicts of every same-layer pair of two nets' features.

        The rip-up loop re-classifies a net pair this way.  Most pairs lie
        farther apart than the layer's interaction reach; their track boxes
        reject them before :meth:`_pair_conflict` is called.
        """
        conflicts: List[ColorConflict] = []
        for feature in features:
            layer = feature.layer
            reach = self._pair_reach[layer]
            col_lo, col_hi, row_lo, row_hi = feature.box
            for other in partner_features:
                if other.layer != layer:
                    continue
                ocol_lo, ocol_hi, orow_lo, orow_hi = other.box
                if (
                    ocol_lo - col_hi > reach
                    or col_lo - ocol_hi > reach
                    or orow_lo - row_hi > reach
                    or row_lo - orow_hi > reach
                ):
                    continue
                conflict = self._pair_conflict(feature, other)
                if conflict is not None:
                    conflicts.append(conflict)
        return conflicts

    def _pair_conflict(self, feature: Feature, other: Feature) -> Optional[ColorConflict]:
        """Return the conflict of two same-layer features of different nets, if any.

        The kind comes from :meth:`_pair_kind` and the location from
        :meth:`_pair_anchor` on *feature*'s side; only a conflicting pair
        pays for its anchor.
        """
        kind = self._pair_kind(feature, other)
        if kind is None:
            return None
        return ColorConflict(
            net_a=feature.net_name,
            net_b=other.net_name,
            layer=feature.layer,
            color=feature.color,
            location=self.grid.vertex_of(feature.indices[self._pair_anchor(feature, other)]),
            kind=kind,
        )

    def _pair_kind(self, feature: Feature, other: Feature) -> Optional[str]:
        """Return the conflict kind of two same-layer features of different nets.

        ``"min-spacing"`` when some vertex pair sits closer than
        ``min_spacing``, else ``"same-mask"`` when the masks are equal and
        some pair sits closer than the layer's ``Dcolor``, else ``None``.
        Every vertex rect is the same wire-width square on a uniform track
        lattice, so "gap < d" is "Chebyshev track distance <=
        :meth:`RoutingGrid.track_reach` of d" and only those two thresholds
        matter, not the exact minimum distance.  The walk rejects the pair
        by bounding box, skips vertices whose distance to the other box
        cannot beat the closest pair so far, and stops at the first pair
        within the min-spacing reach.
        """
        spacing_reach, color_reach = self._reaches[feature.layer]
        if feature.color != other.color:
            color_reach = -1
        reach = spacing_reach if spacing_reach > color_reach else color_reach
        col_lo, col_hi, row_lo, row_hi = other.box
        box_lo, box_hi, box_row_lo, box_row_hi = feature.box
        if max(col_lo - box_hi, box_lo - col_hi, row_lo - box_row_hi, box_row_lo - row_hi) > reach:
            return None
        best = reach + 1
        other_cells = list(zip(other.cols, other.rows))
        for col, row in zip(feature.cols, feature.rows):
            if max(col_lo - col, col - col_hi, row_lo - row, row - row_hi) >= best:
                continue
            for other_col, other_row in other_cells:
                dcol = col - other_col
                if dcol < 0:
                    dcol = -dcol
                drow = row - other_row
                if drow < 0:
                    drow = -drow
                chebyshev = dcol if dcol > drow else drow
                if chebyshev < best:
                    if chebyshev <= spacing_reach:
                        return "min-spacing"
                    best = chebyshev
        if best <= color_reach:
            return "same-mask"
        return None

    def _pair_anchor(self, feature: Feature, other: Feature) -> int:
        """Return the position in ``feature.indices`` where a pair conflict is located.

        The anchor is where rip-up history goes, so it is the feature
        vertex nearest *other*'s track box (Chebyshev track distance, zero
        or negative inside it).  The first vertex whose metal touches the
        box wins at once; otherwise the nearest one does, the smallest flat
        index on ties (the walk is in sorted order and keeps only strictly
        closer vertices).
        """
        col_lo, col_hi, row_lo, row_hi = other.box
        touch = self._touch
        anchor = 0
        best = None
        for position, (col, row) in enumerate(zip(feature.cols, feature.rows)):
            tracks = max(col_lo - col, col - col_hi, row_lo - row, row - row_hi)
            if tracks <= touch:
                return position
            if best is None or tracks < best:
                best = tracks
                anchor = position
        return anchor

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

    def _obstacle_conflicts(
        self, feature: Feature, member_set_order: bool = False
    ) -> List[ColorConflict]:
        """Return *feature*'s conflicts against pre-colored obstacles.

        Each conflict is located at the feature's lowest flat index inside
        the obstacle's window.  With *member_set_order* it is located at
        the first vertex inside the window in the iteration order of
        ``frozenset`` of the members' :class:`GridPoint` s instead: the
        rip-up loop's rule, which its routing digests are pinned to.  That
        set is built from ``(layer, col, row)`` tuples, which hash as the
        ``GridPoint`` s do and so iterate in the same order.
        """
        windows = self._obstacle_window_table().get((feature.layer, feature.color))
        if not windows:
            return []
        conflicts: List[ColorConflict] = []
        box_lo, box_hi, box_row_lo, box_row_hi = feature.box
        vertex_of = self.grid.vertex_of
        member_keys = None
        for name, col_lo, col_hi, row_lo, row_hi in windows:
            if col_hi < box_lo or col_lo > box_hi or row_hi < box_row_lo or row_lo > box_row_hi:
                continue
            inside = next(
                (
                    position
                    for position, (col, row) in enumerate(zip(feature.cols, feature.rows))
                    if col_lo <= col <= col_hi and row_lo <= row <= row_hi
                ),
                None,
            )
            if inside is None:
                continue
            if not member_set_order:
                location = vertex_of(feature.indices[inside])
            else:
                if member_keys is None:
                    layer = feature.layer
                    base, num_rows = layer * self.grid.plane_size, self.grid.num_rows
                    member_keys = frozenset(
                        [(layer, *divmod(index - base, num_rows)) for index in feature.members]
                    )
                location = GridPoint(
                    *next(
                        key
                        for key in member_keys
                        if col_lo <= key[1] <= col_hi and row_lo <= key[2] <= row_hi
                    )
                )
            conflicts.append(
                ColorConflict(
                    net_a=feature.net_name,
                    net_b=name,
                    layer=feature.layer,
                    color=feature.color,
                    location=location,
                    kind="same-mask",
                )
            )
        return conflicts

    def _route_uncolored(self, route: NetRoute, features: List[Feature]) -> int:
        """Return how many TPL-layer vertices of a routed *route* carry no mask.

        *features* are the route's features (:meth:`_net_features`), which
        hold exactly its colored vertices, so the count is the route's
        TPL-layer vertex total minus the features' TPL-layer sizes.
        """
        if not route.routed:
            return 0
        tpl = self._tpl_layers
        plane_size = self.grid.plane_size
        total = sum(1 for node in route.nodes if tpl[node // plane_size])
        return total - sum(len(feature.cols) for feature in features if tpl[feature.layer])
