"""Design-rule checking of routed results.

The checker reports the violations that feed the ISPD-style cost score and
the rip-up decisions:

* **shorts** -- two different nets occupying the same grid vertex,
* **spacing violations** -- metal of different nets closer than the minimum
  spacing (excluding exact overlap, which is already a short),
* **open nets** -- nets whose routed metal does not connect all pins,
* **off-track / out-of-guide** statistics used by the contest score.

Color-specific checks (same-mask spacing) live in :mod:`repro.tpl.conflict`
because they depend on the mask assignment, not only the geometry.

Spacing is integer math on the track lattice.  Every vertex's metal is the
same ``extent = 2 * (wire_width // 2)`` square centred on a track crossing,
so two vertices ``cheb`` tracks apart (Chebyshev distance over ``col`` /
``row``) have the gap ``max(0, cheb * pitch - extent)``, and "gap <
min_spacing" is "``1 <= cheb <= k``" with
``k = (min_spacing + extent - 1) // pitch`` (:meth:`RoutingGrid.track_reach`).
The scan keys each layer's routed vertices by track and probes the
``(2k+1)^2`` window around every routed vertex, so spacing violations come
out in probe order.  When ``k == 0`` (for example ``min_spacing`` 1 on a
pitch-4 lattice) no spacing violation is possible and the probe is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.design import Design
from repro.geometry import GridPoint
from repro.gr.guide import GuideSet, GuideTables
from repro.grid import NetRoute, RoutingGrid, RoutingSolution


@dataclass(frozen=True)
class Violation:
    """One design-rule violation."""

    kind: str
    nets: Tuple[str, ...]
    location: GridPoint
    detail: str = ""


class DRCChecker:
    """Checks a :class:`RoutingSolution` against the grid and design rules."""

    def __init__(
        self,
        design: Design,
        grid: RoutingGrid,
        guides: Optional[GuideSet] = None,
    ) -> None:
        self.design = design
        self.grid = grid
        self.guides = guides
        self.rules = grid.rules
        self.guide_tables = GuideTables(grid, guides)

    # -- individual checks -----------------------------------------------------

    def find_shorts(self, solution: RoutingSolution) -> List[Violation]:
        """Return a violation for every vertex shared by two or more nets."""
        return self._scan(solution)[0]

    def find_spacing_violations(self, solution: RoutingSolution) -> List[Violation]:
        """Return violations for different-net metal closer than ``min_spacing``.

        The check works in grid space: two vertices of different nets on the
        same layer whose physical spacing (centre distance minus wire width)
        is below the minimum spacing violate the rule.  Vertices of the same
        net never violate spacing against themselves.
        """
        return self._scan(solution)[1]

    def _scan(self, solution: RoutingSolution) -> Tuple[List[Violation], List[Violation]]:
        """Compute shorts and spacing violations in one walk over the routes.

        One traversal fills both the vertex-ownership map (shorts) and the
        per-layer track map of routed metal (spacing), so :meth:`check` /
        :meth:`summary` pay a single pass instead of one per violation kind.
        """
        ownership: Dict[int, Set[str]] = {}
        min_spacing = self.rules.min_spacing
        stride, window = self.grid.track_probe(min_spacing)
        plane_size, num_rows = self.grid.plane_size, self.grid.num_rows
        vertex_of = self.grid.vertex_of
        # The window always holds the vertex itself (exact overlap is a
        # short); with nothing else in it no spacing violation is possible.
        spacing_possible = len(window) > 1
        # Per layer: track key -> (net, flat index) of the routed metal there.
        per_layer: Dict[int, Dict[int, List[Tuple[str, int]]]] = {
            layer: {} for layer in range(self.grid.num_layers)
        }
        # Flat index -> (layer, track key).
        keys: Dict[int, Tuple[int, int]] = {}
        for route in solution.routes.values():
            spacing_checked = route.routed and spacing_possible
            for node in route.nodes:
                ownership.setdefault(node, set()).add(route.net_name)
                if spacing_checked:
                    key = keys.get(node)
                    if key is None:
                        layer, rem = divmod(node, plane_size)
                        col, row = divmod(rem, num_rows)
                        key = keys[node] = (layer, col * stride + row)
                    per_layer[key[0]].setdefault(key[1], []).append((route.net_name, node))

        shorts: List[Violation] = []
        for node, owners in ownership.items():
            if len(owners) > 1:
                shorts.append(
                    Violation(
                        kind="short",
                        nets=tuple(sorted(owners)),
                        location=vertex_of(node),
                        detail=f"{len(owners)} nets overlap",
                    )
                )

        spacing: List[Violation] = []
        if not spacing_possible:
            return shorts, spacing
        seen: Set[Tuple[str, str, int, int]] = set()
        for route in solution.routed_nets():
            net_name = route.net_name
            for node in route.nodes:
                layer, base = keys[node]
                owners_by_track = per_layer[layer]
                for delta in window:
                    for other_net, other_node in owners_by_track.get(base + delta, ()):
                        if other_net == net_name:
                            continue
                        if other_node == node:
                            continue  # exact overlap is reported as a short
                        key = self._pair_key(net_name, node, other_net, other_node)
                        if key in seen:
                            continue
                        seen.add(key)
                        spacing.append(
                            Violation(
                                kind="spacing",
                                nets=tuple(sorted((net_name, other_net))),
                                location=vertex_of(node),
                                detail=f"below min spacing {min_spacing}",
                            )
                        )
        return shorts, spacing

    def find_open_nets(self, solution: RoutingSolution) -> List[Violation]:
        """Return a violation per net that does not connect all of its pins."""
        violations: List[Violation] = []
        for net in self.design.routable_nets():
            route = solution.routes.get(net.name)
            if route is None or not route.routed:
                location = GridPoint(0, 0, 0)
                violations.append(
                    Violation(kind="open", nets=(net.name,), location=location, detail="unrouted")
                )
                continue
            pin_groups = [self.grid.pin_access_vertices(pin) for pin in net.pins]
            if not self.route_connects_all(route, pin_groups):
                # Reported at the route's smallest vertex.
                location = (
                    self.grid.vertex_of(min(route.nodes)) if route.nodes else GridPoint(0, 0, 0)
                )
                violations.append(
                    Violation(
                        kind="open",
                        nets=(net.name,),
                        location=location,
                        detail="routed metal does not connect every pin",
                    )
                )
        return violations

    def route_connects_all(self, route: NetRoute, pin_groups: List[List[GridPoint]]) -> bool:
        """Return ``True`` when every pin group touches one routed component of *route*.

        ``pin_groups`` holds, per pin, the access vertices of that pin; a
        pin is reached when at least one of them belongs to the route, and
        a pin's own access vertices are electrically the same metal.  A
        union-find over flat vertex indices.
        """
        if not pin_groups:
            return True
        index_of = self.grid.index_of
        parent: Dict[int, int] = {}

        def find(index: int) -> int:
            root = parent.setdefault(index, index)
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            return root

        for a, b in route.node_edges:
            root_a = find(a)
            root_b = find(b)
            if root_a != root_b:
                parent[root_b] = root_a
        nodes = route.nodes
        anchors: List[int] = []
        for group in pin_groups:
            touched = [index for index in map(index_of, group) if index in nodes]
            if not touched:
                return False
            anchor = find(touched[0])
            for index in touched[1:]:
                root = find(index)
                if root != anchor:
                    parent[root] = anchor
            anchors.append(anchor)
        root = find(anchors[0])
        return all(find(anchor) == root for anchor in anchors[1:])

    def out_of_guide_vertices(self, solution: RoutingSolution) -> int:
        """Return the number of routed vertices falling outside their net's guide."""
        if self.guides is None:
            return 0
        return sum(self.route_out_of_guide(route) for route in solution.routed_nets())

    def route_out_of_guide(self, route: NetRoute) -> int:
        """Return the out-of-guide vertex count of one route.

        Read from the :class:`GuideTables` the search charges its guide
        penalty from.
        """
        if self.guides is None:
            return 0
        mask = self.guide_tables.mask(route.net_name)
        slot_of = self.guide_tables.slot_map()
        return sum(1 for node in route.nodes if not mask[slot_of[node]])

    def wrong_way_edges(self, solution: RoutingSolution) -> int:
        """Return the number of planar edges routed against the preferred direction."""
        count = 0
        layers = self.design.tech.layers
        plane_size, num_rows = self.grid.plane_size, self.grid.num_rows
        for route in solution.routed_nets():
            for a, b in route.node_edges:
                layer_index = a // plane_size
                if layer_index != b // plane_size:
                    continue
                layer = layers[layer_index]
                horizontal_move = a % num_rows == b % num_rows
                if layer.is_horizontal and not horizontal_move:
                    count += 1
                elif layer.is_vertical and horizontal_move:
                    count += 1
        return count

    # -- aggregate -----------------------------------------------------------------

    def check(self, solution: RoutingSolution) -> Dict[str, List[Violation]]:
        """Run every check (one pass) and return violations grouped by kind."""
        shorts, spacing = self._scan(solution)
        return {
            "short": shorts,
            "spacing": spacing,
            "open": self.find_open_nets(solution),
        }

    def summary(
        self,
        solution: RoutingSolution,
        grouped: Optional[Dict[str, List[Violation]]] = None,
    ) -> Dict[str, int]:
        """Return violation counts plus guide / direction statistics.

        Pass a *grouped* result from a previous :meth:`check` of the same,
        unmodified solution to reuse it instead of re-scanning.
        """
        if grouped is None:
            grouped = self.check(solution)
        return {
            "shorts": len(grouped["short"]),
            "spacing": len(grouped["spacing"]),
            "opens": len(grouped["open"]),
            "out_of_guide": self.out_of_guide_vertices(solution),
            "wrong_way": self.wrong_way_edges(solution),
        }

    @staticmethod
    def _pair_key(
        net_a: str, node_a: int, net_b: str, node_b: int
    ) -> Tuple[str, str, int, int]:
        if (net_a, node_a) <= (net_b, node_b):
            return net_a, net_b, node_a, node_b
        return net_b, net_a, node_b, node_a
