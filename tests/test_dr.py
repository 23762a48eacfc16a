"""Tests for the TPL-unaware detailed routing substrate."""

import pytest

from repro.bench import SyntheticSpec, generate_design
from repro.design import Design, Net, Obstacle, Pin
from repro.dr import CostModel, DetailedRouter, DRCChecker, MazeRouter
from repro.dr.cost import TargetBounds
from repro.geometry import GridPoint, Point, Rect
from repro.gr import GlobalRouter
from repro.grid import Direction, NetRoute, RoutingGrid, RoutingSolution
from repro.tech import make_default_tech


def two_pin_design(with_wall=False):
    tech = make_default_tech(num_layers=3, color_spacing=8)
    design = Design(name="dr-test", tech=tech, die_area=Rect(0, 0, 64, 64))
    pin_a = Pin(name="a")
    pin_a.add_shape(0, Rect(4, 28, 8, 32))
    pin_b = Pin(name="b")
    pin_b.add_shape(0, Rect(56, 28, 60, 32))
    design.add_net(Net(name="n1", pins=[pin_a, pin_b]))
    if with_wall:
        # A wall on layers 0 and 1 between the pins forces a detour through layer 2.
        design.add_obstacle(Obstacle(layer=0, rect=Rect(30, 0, 34, 64), name="wall0"))
        design.add_obstacle(Obstacle(layer=1, rect=Rect(30, 0, 34, 64), name="wall1"))
    return design


class TestCostModel:
    def test_traditional_cost_components(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        model = CostModel(grid)
        vertex = GridPoint(0, 5, 5)
        east = model.traditional_cost(vertex, Direction.EAST, GridPoint(0, 6, 5), "n1")
        north = model.traditional_cost(vertex, Direction.NORTH, GridPoint(0, 5, 6), "n1")
        assert north > east
        grid.occupy(GridPoint(0, 6, 5), "other")
        occupied = model.traditional_cost(vertex, Direction.EAST, GridPoint(0, 6, 5), "n1")
        assert occupied >= east + grid.rules.occupancy_penalty

    def test_out_of_guide_cost(self):
        design = two_pin_design()
        guides = GlobalRouter(design).route()
        grid = RoutingGrid(design)
        model = CostModel(grid, guides)
        in_guide = grid.pin_access_vertices(design.nets[0].pins[0])[0]
        assert model.out_of_guide_cost(in_guide, "n1") == 0.0
        far = GridPoint(2, 1, 15)
        assert model.out_of_guide_cost(far, "n1") >= 0.0

    def test_heuristics_are_admissible_lower_bounds(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        model = CostModel(grid)
        targets = [GridPoint(0, 10, 5), GridPoint(1, 2, 2)]
        bounds = TargetBounds.from_nodes([grid.index_of(t) for t in targets], grid.route_dims)
        for vertex in [GridPoint(0, 0, 0), GridPoint(2, 5, 5), GridPoint(0, 10, 5)]:
            exact = model.heuristic(vertex, targets)
            boxed = model.heuristic_bounds(vertex, bounds)
            assert boxed <= exact + 1e-9
        assert model.heuristic_bounds(GridPoint(0, 0, 0), None) == 0.0
        assert TargetBounds.from_nodes([], grid.route_dims) is None

    def test_stitch_cost_weighting(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        model = CostModel(grid)
        assert model.stitch_cost() == pytest.approx(grid.rules.beta * grid.rules.stitch_cost)


class TestMazeRouter:
    def test_finds_straight_path(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        maze = MazeRouter(grid, CostModel(grid))
        source = GridPoint(0, 1, 7)
        target = GridPoint(0, 14, 7)
        result = maze.search([(grid.index_of(source), 0)], {grid.index_of(target)}, "n1")
        assert result.found
        assert result.reached == grid.index_of(target)
        path = [grid.vertex_of(node) for node in result.backtrace()]
        assert path[0] == source and path[-1] == target
        # Straight horizontal run on the preferred layer: length == col distance.
        assert len(path) == 14

    def test_detours_around_blockage(self):
        design = two_pin_design(with_wall=True)
        grid = RoutingGrid(design)
        maze = MazeRouter(grid, CostModel(grid))
        source = GridPoint(0, 1, 7)
        target = GridPoint(0, 14, 7)
        result = maze.search([(grid.index_of(source), 0)], {grid.index_of(target)}, "n1")
        assert result.found
        path = [grid.vertex_of(node) for node in result.backtrace()]
        assert any(v.layer == 2 for v in path), "detour must climb above the wall"
        assert all(not grid.is_blocked_index(grid.index_of(v)) for v in path)

    def test_unreachable_target(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        maze = MazeRouter(grid, CostModel(grid))
        result = maze.search([(grid.index_of(GridPoint(0, 1, 7)), 0)], set(), "n1")
        assert not result.found
        with pytest.raises(ValueError):
            result.backtrace()

    def test_blocked_source_is_skipped(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        grid.block_vertex(GridPoint(0, 1, 7))
        maze = MazeRouter(grid, CostModel(grid))
        result = maze.search(
            [(grid.index_of(GridPoint(0, 1, 7)), 0)], {grid.index_of(GridPoint(0, 5, 7))}, "n1"
        )
        assert not result.found


class TestDetailedRouter:
    def test_routes_simple_design(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        router = DetailedRouter(design, grid=grid)
        solution = router.run()
        route = solution.route_of("n1")
        assert route.routed
        pin_groups = [grid.pin_access_vertices(pin) for pin in design.nets[0].pins]
        assert DRCChecker(design, grid).route_connects_all(route, pin_groups)
        assert route.wirelength() > 0

    def test_routes_synthetic_case_without_opens(self):
        spec = SyntheticSpec(
            name="dr-synth", seed=11, cols=20, rows=20, num_layers=3, num_nets=10,
            net_radius=8, obstacle_count=2, row_spacing=3, cell_spacing=3,
        )
        design = generate_design(spec)
        grid = RoutingGrid(design)
        guides = GlobalRouter(design).route()
        router = DetailedRouter(design, grid=grid, guides=guides)
        solution = router.run()
        checker = DRCChecker(design, grid, guides)
        summary = checker.summary(solution)
        assert summary["opens"] == 0
        assert len(solution.failed_nets()) == 0

    def test_schedule_orders_small_nets_first(self):
        spec = SyntheticSpec(
            name="sched", seed=3, cols=20, rows=20, num_nets=8, row_spacing=3, cell_spacing=3
        )
        design = generate_design(spec)
        router = DetailedRouter(design)
        ordered = router.schedule_nets()
        hpwls = [net.half_perimeter_wirelength() for net in ordered]
        assert hpwls == sorted(hpwls)


class TestDRCChecker:
    def test_detects_short_and_spacing(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        checker = DRCChecker(design, grid)
        solution = RoutingSolution(design_name=design.name)
        route_a = NetRoute("n1", grid.route_dims)
        route_a.add_path([GridPoint(0, 1, 7), GridPoint(0, 2, 7)])
        route_b = NetRoute("other", grid.route_dims)
        route_b.add_path([GridPoint(0, 2, 7), GridPoint(0, 3, 7)])
        solution.add_route(route_a)
        solution.add_route(route_b)
        shorts = checker.find_shorts(solution)
        assert len(shorts) == 1 and set(shorts[0].nets) == {"n1", "other"}

    def test_detects_open_nets(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        checker = DRCChecker(design, grid)
        solution = RoutingSolution(design_name=design.name)
        partial = NetRoute("n1", grid.route_dims)
        partial.add_path([GridPoint(0, 1, 7), GridPoint(0, 2, 7)])
        solution.add_route(partial)
        opens = checker.find_open_nets(solution)
        assert len(opens) == 1 and opens[0].nets == ("n1",)

    def test_clean_solution_summary(self):
        design = two_pin_design()
        grid = RoutingGrid(design)
        solution = DetailedRouter(design, grid=grid).run()
        summary = DRCChecker(design, grid).summary(solution)
        assert summary["shorts"] == 0 and summary["opens"] == 0
