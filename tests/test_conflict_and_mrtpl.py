"""Tests for conflict counting and the full Mr.TPL router."""

import pytest

from repro.bench import SyntheticSpec, generate_design
from repro.bench.micro import fig1_dense_cluster, fig1_multi_pin_net
from repro.design import Design, Net, Obstacle, Pin
from repro.dr import DRCChecker
from repro.eval import evaluate_solution
from repro.geometry import GridPoint, Rect
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.tech import make_default_tech
from repro.tpl import ConflictChecker, MrTPLRouter


def empty_design(color_spacing=8):
    tech = make_default_tech(num_layers=2, color_spacing=color_spacing)
    return Design(name="conflict", tech=tech, die_area=Rect(0, 0, 64, 64))


#: ``route_dims`` of every ``empty_design`` grid.
DIMS = RoutingGrid(empty_design()).route_dims


def straight_route(net, layer, row, cols, color):
    route = NetRoute(net, DIMS)
    path = [GridPoint(layer, col, row) for col in cols]
    route.add_path(path)
    for vertex in path:
        route.set_color(vertex, color)
    return route


class TestConflictChecker:
    def test_same_mask_adjacent_wires_conflict_once(self):
        design = empty_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(straight_route("a", 0, 5, range(2, 8), color=0))
        solution.add_route(straight_route("b", 0, 6, range(2, 8), color=0))
        report = ConflictChecker(design, grid).check(solution)
        assert report.conflict_count == 1
        assert report.conflicts[0].kind == "same-mask"
        assert report.nets_involved() == {"a", "b"}

    def test_different_masks_do_not_conflict(self):
        design = empty_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(straight_route("a", 0, 5, range(2, 8), color=0))
        solution.add_route(straight_route("b", 0, 6, range(2, 8), color=1))
        assert ConflictChecker(design, grid).count(solution) == 0

    def test_far_apart_wires_do_not_conflict(self):
        design = empty_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(straight_route("a", 0, 2, range(2, 8), color=0))
        solution.add_route(straight_route("b", 0, 10, range(2, 8), color=0))
        assert ConflictChecker(design, grid).count(solution) == 0

    def test_same_net_never_conflicts_with_itself(self):
        design = empty_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        route = straight_route("a", 0, 5, range(2, 8), color=0)
        extra = straight_route("a", 0, 6, range(2, 8), color=0)
        for vertex in extra.vertices:
            route.set_color(vertex, 0)
        for a, b in extra.edges:
            route.add_edge(a, b)
        solution.add_route(route)
        assert ConflictChecker(design, grid).count(solution) == 0

    def test_overlap_counts_as_min_spacing_conflict(self):
        design = empty_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(straight_route("a", 0, 5, range(2, 8), color=0))
        solution.add_route(straight_route("b", 0, 5, range(5, 10), color=1))
        report = ConflictChecker(design, grid).check(solution)
        assert any(conflict.kind == "min-spacing" for conflict in report.conflicts)

    def test_conflict_with_fixed_colored_obstacle(self):
        design = empty_design()
        design.add_obstacle(Obstacle(layer=0, rect=Rect(8, 18, 24, 20), name="fx", color=2))
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        solution.add_route(straight_route("a", 0, 5, range(2, 6), color=2))
        report = ConflictChecker(design, grid).check(solution)
        assert report.conflict_count == 1
        assert report.conflicts[0].net_b.startswith("__fixed__")
        # Fixed shapes never appear in the rip-up set.
        assert report.nets_involved() == {"a"}

    def test_uncolored_vertices_are_reported(self):
        design = empty_design()
        grid = RoutingGrid(design)
        solution = RoutingSolution(design_name="d")
        route = NetRoute("a", grid.route_dims)
        route.add_path([GridPoint(0, 2, 2), GridPoint(0, 3, 2)])
        solution.add_route(route)
        report = ConflictChecker(design, grid).check(solution)
        assert report.uncolored_vertices == 2

    def test_feature_extraction_splits_by_color(self):
        design = empty_design()
        grid = RoutingGrid(design)
        route = straight_route("a", 0, 5, range(2, 6), color=0)
        for col in range(6, 9):
            vertex = GridPoint(0, col, 5)
            route.add_edge(GridPoint(0, col - 1, 5), vertex)
            route.set_color(vertex, 1)
        solution = RoutingSolution(design_name="d")
        solution.add_route(route)
        features = ConflictChecker(design, grid).extract_features(solution)
        assert len(features) == 2
        assert {feature.color for feature in features} == {0, 1}


def small_spec(**overrides):
    base = dict(
        name="tpl-int", seed=9, cols=20, rows=20, num_layers=3, num_nets=10,
        color_spacing=8, net_radius=8, obstacle_count=2, colored_obstacle_fraction=0.5,
        row_spacing=3, cell_spacing=3,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestMrTPLRouter:
    def test_routes_all_nets_and_colors_all_tpl_vertices(self):
        design = generate_design(small_spec())
        grid = RoutingGrid(design)
        router = MrTPLRouter(design, grid=grid, use_global_router=True)
        solution = router.run()
        assert not solution.failed_nets()
        result = evaluate_solution(design, grid, solution)
        assert result.open_nets == 0
        drc = DRCChecker(design, grid)
        for route in solution.routes.values():
            net = design.net_by_name(route.net_name)
            groups = [grid.pin_access_vertices(pin) for pin in net.pins]
            assert drc.route_connects_all(route, groups)

    def test_every_routed_wire_vertex_has_exactly_one_mask(self):
        design = generate_design(small_spec(seed=21))
        grid = RoutingGrid(design)
        solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
        for route in solution.routes.values():
            for vertex, color in route.vertex_colors.items():
                assert color in (0, 1, 2)

    def test_stitch_recount_matches_color_changes(self):
        design = generate_design(small_spec(seed=33))
        grid = RoutingGrid(design)
        solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
        for route in solution.routes.values():
            expected = 0
            for a, b in route.edges:
                if a.layer != b.layer:
                    continue
                ca, cb = route.vertex_colors.get(a), route.vertex_colors.get(b)
                if ca is not None and cb is not None and ca != cb:
                    expected += 1
            assert route.stitch_count() == expected

    def test_sparse_design_routes_conflict_free(self):
        design = generate_design(small_spec(seed=2, num_nets=5, obstacle_count=0))
        grid = RoutingGrid(design)
        router = MrTPLRouter(design, grid=grid, use_global_router=False)
        solution = router.run()
        assert ConflictChecker(design, grid).check(solution).conflict_count == 0

    def test_fig1_scenarios_route_cleanly(self):
        for design in (fig1_dense_cluster(), fig1_multi_pin_net()):
            grid = RoutingGrid(design)
            solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
            result = evaluate_solution(design, grid, solution)
            assert result.open_nets == 0
            assert result.failed_nets == 0

    def test_max_iterations_zero_skips_ripup(self):
        design = generate_design(small_spec(seed=4))
        grid = RoutingGrid(design)
        router = MrTPLRouter(design, grid=grid, use_global_router=False, max_iterations=0)
        solution = router.run()
        assert solution.iterations == 0
