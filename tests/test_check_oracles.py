"""Oracle-pinning tests: exact golden contents of the full-scan checkers.

The incremental checkers of :mod:`repro.check` are proven equal to
``DRCChecker`` / ``ConflictChecker`` by the differential harness, which
makes the full checkers the reference semantics of the whole repository --
so those semantics are pinned here on tiny hand-built grids with known
shorts, spacing violations, same-mask ``Dcolor`` conflicts, open nets and
obstacle conflicts, asserting exact ``Violation`` / ``ColorConflict``
contents rather than just counts.
"""

from repro.design import Design, Net, Obstacle, Pin
from repro.dr import DRCChecker
from repro.geometry import GridPoint, Rect
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.tech import DesignRules, make_default_tech
from repro.tpl import ConflictChecker


def tiny_design(min_spacing=1, color_spacing=8, num_layers=2):
    rules = DesignRules(min_spacing=min_spacing, color_spacing=color_spacing)
    tech = make_default_tech(
        num_layers=num_layers, pitch=4, color_spacing=color_spacing, rules=rules
    )
    return Design(name="oracle", tech=tech, die_area=Rect(0, 0, 64, 64))


#: ``route_dims`` of every ``tiny_design`` grid (64 DBU die, pitch 4).
TINY_DIMS = (17, 17)


def wire(net, layer, row, cols, color=None):
    route = NetRoute(net, TINY_DIMS)
    route.add_path([GridPoint(layer, col, row) for col in cols])
    if color is not None:
        for vertex in list(route.vertices):
            route.set_color(vertex, color)
    return route


def port(name, layer, x, y):
    pin = Pin(name=name)
    pin.add_shape(layer, Rect(x - 1, y - 1, x + 1, y + 1))
    return pin


class TestDRCOracle:
    def test_short_violation_exact_contents(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, range(2, 6)))
        solution.add_route(wire("b", 0, 5, range(5, 9)))
        grouped = DRCChecker(design, grid).check(solution)
        assert len(grouped["short"]) == 1
        violation = grouped["short"][0]
        assert violation.kind == "short"
        assert violation.nets == ("a", "b")
        assert violation.location == GridPoint(0, 5, 5)
        assert violation.detail == "2 nets overlap"
        assert grouped["spacing"] == []

    def test_three_way_short_reports_all_nets_once(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        for name in ("a", "b", "c"):
            route = NetRoute(name, TINY_DIMS)
            route.add_path([GridPoint(0, 4, 4)])
            solution.add_route(route)
        shorts = DRCChecker(design, grid).find_shorts(solution)
        assert len(shorts) == 1
        assert shorts[0].nets == ("a", "b", "c")
        assert shorts[0].detail == "3 nets overlap"

    def test_spacing_violations_exact_pairs(self):
        # pitch 4, wire width 1 (half 0): adjacent tracks sit at gap 4.
        design = tiny_design(min_spacing=6)
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3)))
        solution.add_route(wire("b", 0, 6, (2, 3)))
        spacing = DRCChecker(design, grid).find_spacing_violations(solution)
        # Two straight + two diagonal vertex pairs, deduplicated per pair.
        assert len(spacing) == 4
        for violation in spacing:
            assert violation.kind == "spacing"
            assert violation.nets == ("a", "b")
            assert violation.detail == "below min spacing 6"

    def test_spacing_at_exact_threshold_is_legal(self):
        design = tiny_design(min_spacing=4)  # adjacent-track gap == threshold
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3)))
        solution.add_route(wire("b", 0, 6, (2, 3)))
        assert DRCChecker(design, grid).find_spacing_violations(solution) == []

    def test_failed_routes_are_excluded_from_spacing_but_not_shorts(self):
        design = tiny_design(min_spacing=6)
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3)))
        failed = wire("b", 0, 6, (2, 3))
        failed.routed = False
        failed.add_path([GridPoint(0, 2, 5)])  # overlaps net a
        solution.add_route(failed)
        grouped = DRCChecker(design, grid).check(solution)
        assert grouped["spacing"] == []
        assert [violation.nets for violation in grouped["short"]] == [("a", "b")]

    def test_open_net_violations_exact_contents(self):
        design = tiny_design()
        net = Net(name="two_pin")
        net.add_pin(port("p1", 0, 8, 8))
        net.add_pin(port("p2", 0, 40, 8))
        design.add_net(net)
        grid = RoutingGrid(design)
        checker = DRCChecker(design, grid)

        unrouted = checker.find_open_nets(RoutingSolution(design_name="d"))
        assert len(unrouted) == 1
        assert unrouted[0].kind == "open"
        assert unrouted[0].nets == ("two_pin",)
        assert unrouted[0].location == GridPoint(0, 0, 0)
        assert unrouted[0].detail == "unrouted"

        # A route touching only one pin: still open, different detail.
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("two_pin", 0, 2, (1, 2, 3)))
        partial = checker.find_open_nets(solution)
        assert len(partial) == 1
        assert partial[0].detail == "routed metal does not connect every pin"

        # A straight wire across both pins closes the net.
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("two_pin", 0, 2, range(2, 11)))
        assert checker.find_open_nets(solution) == []

    def test_summary_reuses_precomputed_check(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, range(2, 6)))
        solution.add_route(wire("b", 0, 5, range(5, 9)))
        checker = DRCChecker(design, grid)
        grouped = checker.check(solution)
        assert checker.summary(solution, grouped) == checker.summary(solution)


class TestConflictOracle:
    def test_same_mask_conflict_exact_contents(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3, 4), color=1))
        solution.add_route(wire("b", 0, 6, (2, 3, 4), color=1))
        report = ConflictChecker(design, grid).check(solution)
        assert report.conflict_count == 1
        conflict = report.conflicts[0]
        assert conflict.kind == "same-mask"
        assert {conflict.net_a, conflict.net_b} == {"a", "b"}
        assert conflict.layer == 0
        assert conflict.color == 1
        assert report.uncolored_vertices == 0

    def test_same_mask_at_exact_dcolor_is_legal(self):
        design = tiny_design(color_spacing=8)
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3, 4), color=0))
        solution.add_route(wire("b", 0, 7, (2, 3, 4), color=0))  # gap == 8
        assert ConflictChecker(design, grid).count(solution) == 0

    def test_min_spacing_conflict_ignores_masks(self):
        design = tiny_design(min_spacing=6)
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3, 4), color=0))
        solution.add_route(wire("b", 0, 6, (2, 3, 4), color=2))  # gap 4 < 6
        report = ConflictChecker(design, grid).check(solution)
        assert report.conflict_count == 1
        assert report.conflicts[0].kind == "min-spacing"
        assert {report.conflicts[0].net_a, report.conflicts[0].net_b} == {"a", "b"}

    def test_multiple_feature_pairs_count_separately(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        # Net a splits into two features (mask change); both rub against b.
        route = wire("a", 0, 5, (2, 3), color=0)
        route.add_edge(GridPoint(0, 3, 5), GridPoint(0, 4, 5))
        route.set_color(GridPoint(0, 4, 5), 1)
        route.set_color(GridPoint(0, 5, 5), 1)
        route.add_edge(GridPoint(0, 4, 5), GridPoint(0, 5, 5))
        solution.add_route(route)
        other = wire("b", 0, 6, (2, 3, 4, 5), color=0)
        other.set_color(GridPoint(0, 4, 6), 1)
        other.set_color(GridPoint(0, 5, 6), 1)
        solution.add_route(other)
        report = ConflictChecker(design, grid).check(solution)
        # a/0 vs b/0 and a/1 vs b/1 conflict (same mask within Dcolor); the
        # cross-color pairs are exactly what different masks make legal.
        assert report.conflict_count == 2
        assert all(conflict.kind == "same-mask" for conflict in report.conflicts)
        assert sorted(conflict.color for conflict in report.conflicts) == [0, 1]

    def test_obstacle_conflict_exact_contents(self):
        design = tiny_design()
        design.add_obstacle(Obstacle(layer=0, rect=Rect(8, 18, 24, 20), name="fx", color=2))
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3), color=2))
        report = ConflictChecker(design, grid).check(solution)
        assert report.conflict_count == 1
        conflict = report.conflicts[0]
        assert conflict.net_a == "a"
        assert conflict.net_b == "__fixed__fx"
        assert conflict.kind == "same-mask"
        assert conflict.color == 2
        assert report.nets_involved() == {"a"}

    def test_obstacle_with_different_mask_never_conflicts(self):
        design = tiny_design()
        design.add_obstacle(Obstacle(layer=0, rect=Rect(8, 18, 24, 20), name="fx", color=2))
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(wire("a", 0, 5, (2, 3), color=0))
        assert ConflictChecker(design, grid).count(solution) == 0


def feature_vertices(grid, feature):
    """Return *feature*'s vertices as a ``GridPoint`` frozenset."""
    return frozenset(map(grid.vertex_of, feature.members))


class TestNetFeatureExtraction:
    """Regression coverage for ``ConflictChecker._net_features`` semantics."""

    def test_via_crossing_yields_per_layer_features(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        route = NetRoute("a", TINY_DIMS)
        lower = [GridPoint(0, 2, 2), GridPoint(0, 3, 2)]
        upper = [GridPoint(1, 3, 2), GridPoint(1, 3, 3)]
        route.add_path(lower + upper)  # the (0,3,2) -> (1,3,2) edge is a via
        for vertex in lower + upper:
            route.set_color(vertex, 0)
        features = ConflictChecker(design, grid)._net_features(route)
        assert len(features) == 2
        by_layer = {feature.layer: feature for feature in features}
        assert set(by_layer) == {0, 1}
        assert feature_vertices(grid, by_layer[0]) == frozenset(lower)
        assert feature_vertices(grid, by_layer[1]) == frozenset(upper)
        assert all(feature.color == 0 for feature in features)

    def test_mask_change_mid_run_splits_features(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        route = NetRoute("a", TINY_DIMS)
        path = [GridPoint(0, col, 4) for col in range(2, 8)]
        route.add_path(path)
        for vertex in path[:3]:
            route.set_color(vertex, 0)
        for vertex in path[3:]:
            route.set_color(vertex, 2)
        features = ConflictChecker(design, grid)._net_features(route)
        assert len(features) == 2
        by_color = {feature.color: feature for feature in features}
        assert feature_vertices(grid, by_color[0]) == frozenset(path[:3])
        assert feature_vertices(grid, by_color[2]) == frozenset(path[3:])

    def test_disconnected_same_color_runs_stay_separate_features(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        route = NetRoute("a", TINY_DIMS)
        left = [GridPoint(0, 2, 4), GridPoint(0, 3, 4)]
        right = [GridPoint(0, 8, 4), GridPoint(0, 9, 4)]
        route.add_path(left)
        route.add_path(right)
        for vertex in left + right:
            route.set_color(vertex, 1)
        features = ConflictChecker(design, grid)._net_features(route)
        assert sorted(feature_vertices(grid, feature) for feature in features) == sorted(
            [frozenset(left), frozenset(right)]
        )

    def test_colors_outside_route_vertices_are_ignored(self):
        design = tiny_design()
        grid = RoutingGrid(design)
        route = NetRoute("a", TINY_DIMS)
        path = [GridPoint(0, 2, 4), GridPoint(0, 3, 4)]
        route.add_path(path)
        for vertex in path:
            route.set_color(vertex, 0)
        # A stale color entry with no backing metal must not create features.
        route.node_colors[route.node_of(GridPoint(0, 12, 12))] = 1
        features = ConflictChecker(design, grid)._net_features(route)
        assert len(features) == 1
        assert feature_vertices(grid, features[0]) == frozenset(path)
