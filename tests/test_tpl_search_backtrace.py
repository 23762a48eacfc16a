"""Tests for color-state searching (Alg. 2) and the verSet/segSet backtrace (Alg. 3)."""

import pytest

from repro.bench.micro import fig3_walkthrough_design
from repro.design import Design, Net, Obstacle, Pin
from repro.dr import CostModel
from repro.geometry import GridPoint, Rect
from repro.grid import NetRoute, RoutingGrid
from repro.tech import make_default_tech
from repro.tpl import BLUE, GREEN, RED, ColorState
from repro.sched.commit import apply_route_ops, route_log
from repro.tpl.backtrace import Backtracer, apply_colored_path
from repro.tpl.search import ColorStateSearch


def open_field_design(**obstacles):
    tech = make_default_tech(num_layers=2, color_spacing=8)
    design = Design(name="field", tech=tech, die_area=Rect(0, 0, 64, 64))
    pin_a = Pin(name="a")
    pin_a.add_shape(0, Rect(4, 28, 6, 30))
    pin_b = Pin(name="b")
    pin_b.add_shape(0, Rect(56, 28, 58, 30))
    design.add_net(Net(name="n1", pins=[pin_a, pin_b]))
    for name, (layer, rect, color) in obstacles.items():
        design.add_obstacle(Obstacle(layer=layer, rect=rect, name=name, color=color))
    return design


def seeds(grid, states):
    """Return ``{GridPoint: ColorState}`` *states* as flat ``(index, bits)`` seeds."""
    return [(grid.index_of(vertex), state.bits) for vertex, state in states.items()]


class TestColorStateSearch:
    def test_unconstrained_path_keeps_full_state(self):
        design = open_field_design()
        grid = RoutingGrid(design)
        engine = ColorStateSearch(grid, CostModel(grid))
        source = GridPoint(0, 1, 7)
        target = GridPoint(0, 10, 7)
        result = engine.search(
            seeds(grid, {source: ColorState.all()}), {grid.index_of(target)}, "n1"
        )
        assert result.found
        assert result.reached == grid.index_of(target)
        for vertex in result.path_to_source():
            assert result.color_state_of(vertex) == ColorState.all()

    def test_state_narrows_near_fixed_metal(self):
        # A green-colored fixed shape close to the path removes green from the
        # color state of the vertices that pass it (the Fig. 3 mechanism).
        design = open_field_design(
            green=(0, Rect(20, 24, 28, 26), GREEN),
        )
        grid = RoutingGrid(design)
        engine = ColorStateSearch(grid, CostModel(grid))
        source = GridPoint(0, 1, 7)
        target = GridPoint(0, 12, 7)
        result = engine.search(
            seeds(grid, {source: ColorState.all()}), {grid.index_of(target)}, "n1"
        )
        assert result.found
        path = result.path_to_source()
        narrowed = [result.color_state_of(v) for v in path if not result.color_state_of(v).is_full]
        assert narrowed, "some vertex must have dropped the conflicting mask"
        assert all(not state.allows(GREEN) for state in narrowed)

    def test_search_fails_gracefully_without_targets(self):
        design = open_field_design()
        grid = RoutingGrid(design)
        engine = ColorStateSearch(grid, CostModel(grid))
        result = engine.search(seeds(grid, {GridPoint(0, 1, 7): ColorState.all()}), set(), "n1")
        assert not result.found
        with pytest.raises(ValueError):
            result.path_to_source()

    def test_costs_are_nonnegative_and_monotone_along_path(self):
        design = open_field_design()
        grid = RoutingGrid(design)
        engine = ColorStateSearch(grid, CostModel(grid))
        source = GridPoint(0, 1, 7)
        target = GridPoint(0, 10, 10)
        result = engine.search(
            seeds(grid, {source: ColorState.all()}), {grid.index_of(target)}, "n1"
        )
        assert result.found
        path = result.path_to_source()  # destination first
        costs = [result.labels[v].cost for v in path]
        assert costs[-1] == 0.0
        assert all(costs[i] >= costs[i + 1] for i in range(len(costs) - 1))


class TestBacktrace:
    def route_once(self, design, sources=None):
        grid = RoutingGrid(design)
        model = CostModel(grid)
        engine = ColorStateSearch(grid, model)
        backtracer = Backtracer(grid, model)
        source = GridPoint(0, 1, 7)
        target = GridPoint(0, 13, 7)
        search = engine.search(
            seeds(grid, sources or {source: ColorState.all()}), {grid.index_of(target)}, "n1"
        )
        assert search.found
        return grid, backtracer.backtrace(search, "n1")

    def test_unconstrained_path_single_segment_no_stitch(self):
        design = open_field_design()
        grid, colored = self.route_once(design)
        route = NetRoute("n1", grid.route_dims)
        apply_colored_path(colored, route)
        assert route.stitch_count() == 0
        assert len({segment.final_color for segment in colored.segments}) == 1
        assert set(colored.colors()) == set(colored.nodes)

    def test_conflicting_fixed_shapes_force_color_choice(self):
        design = open_field_design(
            green=(0, Rect(16, 24, 24, 26), GREEN),
            blue=(0, Rect(36, 24, 44, 26), BLUE),
        )
        grid, colored = self.route_once(design)
        colors = {grid.vertex_of(node): color for node, color in colored.colors().items()}
        assert colors, "path must be colored"
        # Vertices adjacent to the green shape must not be green; vertices
        # adjacent to the blue shape must not be blue.
        for vertex, color in colors.items():
            if vertex.layer != 0:
                continue
        # With both constraints on one straight run, red is the only mask that
        # satisfies the whole segment without a stitch.
        run_colors = {color for vertex, color in colors.items() if vertex.row == 7}
        assert RED in run_colors

    def test_join_to_committed_tree_color(self):
        design = open_field_design()
        grid = RoutingGrid(design)
        model = CostModel(grid)
        engine = ColorStateSearch(grid, model)
        backtracer = Backtracer(grid, model)
        source = GridPoint(0, 1, 7)
        tree_colors = {grid.index_of(source): BLUE}
        search = engine.search(
            seeds(grid, {source: ColorState.single(BLUE)}),
            {grid.index_of(GridPoint(0, 9, 7))},
            "n1",
        )
        colored = backtracer.backtrace(search, "n1", tree_colors)
        assert colored.colors()[grid.index_of(source)] == BLUE

    def test_colored_path_commits_through_the_route_log(self):
        design = open_field_design()
        grid = RoutingGrid(design)
        model = CostModel(grid)
        engine = ColorStateSearch(grid, model)
        backtracer = Backtracer(grid, model)
        source = GridPoint(0, 1, 7)
        search = engine.search(
            seeds(grid, {source: ColorState.all()}), {grid.index_of(GridPoint(0, 9, 7))}, "n1"
        )
        colored = backtracer.backtrace(search, "n1")
        route = NetRoute("n1", grid.route_dims)
        apply_colored_path(colored, route)
        assert route.stitch_count() == 0
        apply_route_ops(grid, route_log(grid, route))
        assert route.vertices and route.vertex_colors
        any_vertex = next(iter(route.vertex_colors))
        assert grid.vertex_color_index(grid.index_of(any_vertex)) == route.vertex_colors[any_vertex]
        assert "n1" in grid.occupants(any_vertex)

    def test_apply_colored_path_writes_what_per_vertex_calls_write(self):
        """One bulk colour write leaves the route as one ``set_node_color``
        per coloured vertex does, every colour in path order."""
        design = open_field_design(
            green=(0, Rect(16, 24, 24, 26), GREEN),
            blue=(0, Rect(36, 24, 44, 26), BLUE),
        )
        grid = RoutingGrid(design)
        model = CostModel(grid)
        source, target = GridPoint(0, 1, 7), GridPoint(1, 13, 12)  # a via splits the segSets
        search = ColorStateSearch(grid, model).search(
            seeds(grid, {source: ColorState.all()}), {grid.index_of(target)}, "n1"
        )
        colored = Backtracer(grid, model).backtrace(search, "n1")
        route = NetRoute("n1", grid.route_dims)
        apply_colored_path(colored, route)

        reference = NetRoute("n1", grid.route_dims)
        reference.add_node_path(colored.nodes)
        for node, color in colored.colors().items():
            reference.set_node_color(node, color)
        assert route == reference
        assert list(route.node_colors.items()) == list(reference.node_colors.items())
        assert list(route.nodes) == list(reference.nodes)
        assert route.stitches == reference.stitches
        assert route_log(grid, route) == route_log(grid, reference)
        assert len(colored.segments) > 1

    def test_segments_partition_path_vertices(self):
        design = open_field_design(
            green=(0, Rect(16, 24, 24, 26), GREEN),
            blue=(0, Rect(36, 24, 44, 26), BLUE),
        )
        _grid, colored = self.route_once(design)
        from_segments = []
        for segment in colored.segments:
            from_segments.extend(segment.nodes)
        assert sorted(from_segments) == sorted(colored.nodes)


class TestFig3Walkthrough:
    def test_fig3_routes_without_conflicts(self):
        from repro.eval import evaluate_solution
        from repro.tpl import MrTPLRouter

        design = fig3_walkthrough_design()
        grid = RoutingGrid(design)
        router = MrTPLRouter(design, grid=grid, use_global_router=False)
        solution = router.run()
        result = evaluate_solution(design, grid, solution)
        assert result.open_nets == 0
        assert result.conflicts == 0
        assert result.failed_nets == 0

    def test_fig3_respects_fixed_masks(self):
        from repro.tpl import MrTPLRouter

        design = fig3_walkthrough_design()
        grid = RoutingGrid(design)
        solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
        route = solution.route_of("fig3_net")
        rules = design.tech.rules
        for obstacle in design.colored_obstacles():
            for vertex, color in route.vertex_colors.items():
                if vertex.layer != obstacle.layer:
                    continue
                distance = grid.vertex_rect(vertex).distance_to(obstacle.rect)
                if distance < rules.color_spacing_on(vertex.layer):
                    assert color != obstacle.color, (
                        f"vertex {vertex} uses the mask of fixed shape {obstacle.name}"
                    )
