"""Tests for the DAC-2012 router baseline, 3-coloring, and the decomposer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import (
    ColoringProblem,
    Dac2012Router,
    LayoutDecomposer,
    color_component_exact,
    color_component_greedy,
    solve_coloring,
)
from repro.baselines.decomposer import ColoringUnit
from repro.bench import SyntheticSpec, generate_design
from repro.design import Design, Net, Pin
from repro.dr import DetailedRouter, DRCChecker
from repro.eval import evaluate_solution
from repro.geometry import GridPoint, Rect
from repro.grid import RoutingGrid
from repro.tech import make_default_tech
from repro.tpl import ConflictChecker, MrTPLRouter


class TestColoring:
    def test_triangle_is_three_colorable(self):
        problem = ColoringProblem(conflict_edges=[("a", "b"), ("b", "c"), ("a", "c")])
        assignment = solve_coloring(problem)
        assert problem.count(assignment) == (0, 0)
        assert len({assignment["a"], assignment["b"], assignment["c"]}) == 3

    def test_k4_always_has_a_conflict(self):
        nodes = ["a", "b", "c", "d"]
        edges = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1:]]
        problem = ColoringProblem(conflict_edges=edges)
        assignment = solve_coloring(problem)
        conflicts, _stitches = problem.count(assignment)
        assert conflicts == 1  # optimal for K4 with 3 masks

    def test_fixed_colors_are_respected(self):
        problem = ColoringProblem(
            conflict_edges=[("a", "b")],
            fixed_colors={"a": 2},
        )
        assignment = solve_coloring(problem)
        assert assignment["a"] == 2 and assignment["b"] != 2

    def test_stitch_edges_prefer_same_color(self):
        problem = ColoringProblem(
            conflict_edges=[],
            stitch_edges=[("a", "b"), ("b", "c")],
        )
        assignment = solve_coloring(problem)
        assert assignment["a"] == assignment["b"] == assignment["c"]

    def test_conflict_outweighs_stitch(self):
        # a-b conflict, a-b stitch candidate chain through c: the solver must
        # accept the stitch rather than the conflict.
        problem = ColoringProblem(
            conflict_edges=[("a", "b")],
            stitch_edges=[("a", "c"), ("c", "b")],
        )
        assignment = solve_coloring(problem)
        conflicts, stitches = problem.count(assignment)
        assert conflicts == 0 and stitches >= 1

    def test_exact_matches_or_beats_greedy(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
        problem = ColoringProblem(conflict_edges=edges)
        nodes = ["a", "b", "c", "d"]
        exact = color_component_exact(problem, nodes)
        greedy = color_component_greedy(problem, nodes)
        assert problem.cost_of(exact) <= problem.cost_of(greedy)

    def test_empty_problem(self):
        assert solve_coloring(ColoringProblem()) == {}

    def test_graph_marks_edge_kinds(self):
        problem = ColoringProblem(
            conflict_edges=[("a", "b")], stitch_edges=[("a", "b"), ("b", "c")]
        )
        assert problem.adjacency() == {
            "a": {"b": "conflict"},
            "b": {"a": "conflict", "c": "stitch"},
            "c": {"b": "stitch"},
        }


def small_spec(seed=13, nets=8):
    return SyntheticSpec(
        name="baseline-test", seed=seed, cols=20, rows=20, num_layers=3,
        num_nets=nets, color_spacing=8, net_radius=8, obstacle_count=2,
        colored_obstacle_fraction=0.5, row_spacing=3, cell_spacing=3,
    )


class TestDac2012Router:
    def test_routes_and_colors_all_nets(self):
        design = generate_design(small_spec())
        grid = RoutingGrid(design)
        router = Dac2012Router(design, grid=grid, use_global_router=False)
        solution = router.run()
        assert not solution.failed_nets()
        result = evaluate_solution(design, grid, solution)
        assert result.open_nets == 0
        assert result.uncolored_vertices <= sum(
            len(r.vertices) - len(r.vertex_colors) for r in solution.routes.values()
        )

    def test_connectivity_of_multi_pin_nets(self):
        design = generate_design(small_spec(seed=17))
        grid = RoutingGrid(design)
        solution = Dac2012Router(design, grid=grid, use_global_router=False).run()
        drc = DRCChecker(design, grid)
        for net in design.routable_nets():
            route = solution.route_of(net.name)
            groups = [grid.pin_access_vertices(pin) for pin in net.pins]
            assert drc.route_connects_all(route, groups), net.name

    def test_two_pin_topology_spans_pins(self):
        design = generate_design(small_spec(seed=19))
        router = Dac2012Router(design, use_global_router=False)
        for net in design.multi_pin_nets():
            pairs = router._two_pin_topology(net)
            assert len(pairs) >= net.num_pins - 1
            touched = {index for pair in pairs for index in pair}
            assert touched == set(range(net.num_pins))

    @staticmethod
    def one_net_design(*pins):
        """A design holding one net of square pins ``(layer, x, y)``, 8 DBU wide."""
        tech = make_default_tech(num_layers=3, color_spacing=8)
        design = Design(name="one-net", tech=tech, die_area=Rect(0, 0, 80, 80))
        net = Net(name="n")
        for index, (layer, x, y) in enumerate(pins):
            pin = Pin(name=f"p{index}")
            pin.add_shape(layer, Rect(x - 4, y - 4, x + 4, y + 4))
            net.add_pin(pin)
        design.add_net(net)
        return design, net

    def test_pin_on_a_repeated_centre_is_connected(self):
        """A pin on another layer under an earlier pin's centre joins that pin."""
        design, net = self.one_net_design((0, 8, 8), (1, 8, 8), (0, 60, 40))
        grid = RoutingGrid(design)
        router = Dac2012Router(design, grid=grid, use_global_router=False)
        assert sorted(router._two_pin_topology(net)) == [(0, 1), (0, 2)]
        route = router.run().route_of("n")
        groups = [grid.pin_access_vertices(pin) for pin in net.pins]
        assert route.routed
        assert DRCChecker(design, grid).route_connects_all(route, groups)

    def test_cached_topology_and_pin_access_equal_fresh_ones(self):
        design = generate_design(small_spec(seed=19))
        grid = RoutingGrid(design)
        router = Dac2012Router(design, grid=grid, use_global_router=False)
        router.run()
        fresh_grid = RoutingGrid(design)
        fresh = Dac2012Router(design, grid=fresh_grid, use_global_router=False)
        for net in design.routable_nets():
            assert router._two_pin_topology(net) is router._two_pin_topology(net)
            assert router._two_pin_topology(net) == fresh._two_pin_topology(net)
            for pin in net.pins:
                vertices = fresh_grid.pin_access_vertices(pin)
                assert grid.pin_access_vertices(pin) == vertices
                assert grid.pin_access_nodes(pin) == tuple(map(grid.index_of, vertices))

    def test_blocked_access_vertex_leaves_the_next_route(self):
        design, net = self.one_net_design((0, 8, 8), (0, 60, 40))
        grid = RoutingGrid(design)
        router = Dac2012Router(design, grid=grid, use_global_router=False)
        assert len(grid.pin_access_vertices(net.pins[0])) > 1
        vertex = grid.pin_access_vertices(net.pins[0])[0]
        assert grid.index_of(vertex) in router.route_net(net).nodes
        grid.release_net(net.name)
        grid.block_vertex(vertex)
        assert vertex not in grid.pin_access_vertices(net.pins[0])
        route = router.route_net(net)
        assert route.routed and grid.index_of(vertex) not in route.nodes


    def test_target_groups_are_cached_by_their_indices(self):
        """A campaign searches each target group once per cache entry; the
        cached bounds and mask nodes are the ones built fresh, and a cached
        search finds what an engine with an empty cache finds."""
        from repro.baselines.dac2012 import MaskExpandedSearch
        from repro.dr.cost import TargetBounds

        design = generate_design(small_spec(seed=19))
        grid = RoutingGrid(design)
        router = Dac2012Router(design, grid=grid, use_global_router=False)
        router.run()
        cache = router.two_pin_engine._targets
        groups = {grid.pin_access_nodes(pin) for net in design.routable_nets() for pin in net.pins}
        assert cache and set(cache) <= groups
        for group, (bounds, nodes) in cache.items():
            assert bounds == TargetBounds.from_nodes(group, grid.route_dims)
            assert nodes == {3 * node + mask for node in group for mask in range(3)}
        net = design.multi_pin_nets()[0]
        source, target = (grid.pin_access_nodes(pin) for pin in net.pins[:2])
        seeds = [(node, mask) for node in source for mask in range(3)]
        cached = router.two_pin_engine
        entries = len(cache) + (target not in cache)
        paths = [cached.search(seeds, target, net.name), cached.search(seeds, list(target), net.name)]
        fresh = MaskExpandedSearch(grid, router.cost_model)
        assert paths == [fresh.search(seeds, target, net.name)] * 2
        assert len(cache) == entries  # a list of the same indices hits the tuple's entry


class TestLayoutDecomposer:
    def make_routed(self, seed=23):
        design = generate_design(small_spec(seed=seed, nets=10))
        grid = RoutingGrid(design)
        solution = DetailedRouter(design, grid=grid).run()
        return design, grid, solution

    def test_decomposition_colors_every_routed_vertex(self):
        design, grid, solution = self.make_routed()
        result = LayoutDecomposer(design, grid).decompose(solution)
        for route in result.solution.routes.values():
            if not route.routed:
                continue
            for vertex in route.vertices:
                assert vertex in route.vertex_colors

    def test_input_solution_is_not_mutated(self):
        design, grid, solution = self.make_routed(seed=29)
        before = {
            name: dict(route.vertex_colors) for name, route in solution.routes.items()
        }
        LayoutDecomposer(design, grid).decompose(solution)
        after = {
            name: dict(route.vertex_colors) for name, route in solution.routes.items()
        }
        assert before == after

    def test_polygon_mode_produces_no_stitches(self):
        design, grid, solution = self.make_routed(seed=31)
        result = LayoutDecomposer(design, grid, stitch_candidates=False).decompose(solution)
        assert result.stitches == 0

    def test_runs_mode_has_at_least_as_many_units(self):
        design, grid, solution = self.make_routed(seed=37)
        runs = LayoutDecomposer(design, grid, stitch_candidates=True)
        polygons = LayoutDecomposer(design, grid, stitch_candidates=False)
        assert len(runs.extract_units(solution)) >= len(polygons.extract_units(solution))

    def test_units_partition_routed_vertices(self):
        design, grid, solution = self.make_routed(seed=41)
        decomposer = LayoutDecomposer(design, grid)
        units = decomposer.extract_units(solution)
        per_net = {}
        for unit in units:
            per_net.setdefault(unit.net_name, []).extend(map(grid.vertex_of, unit.nodes))
        for route in solution.routes.values():
            if not route.routed:
                continue
            assert sorted(per_net[route.net_name]) == sorted(route.vertices)

    def test_stitch_edges_join_only_planar_neighbours(self):
        """Same-net units one track apart share a stitch edge; nothing wraps.

        A vertex on the last row and the next column's row 0 have flat
        indices one apart, yet are not adjacent.
        """
        design = generate_design(small_spec())
        grid = RoutingGrid(design)
        last = grid.num_rows - 1
        cells = [
            ("x", (2, last)), ("x", (3, 0)),  # flat neighbours across a column
            ("x", (5, 4)), ("x", (5, 5)),  # row neighbours
            ("x", (7, 4)), ("x", (8, 4)),  # column neighbours
            ("y", (5, 6)),  # another net next to ("x", 3)
        ]
        units = [
            ColoringUnit(unit_id=(net, position), net_name=net, layer=0,
                         nodes=[grid.index_of(GridPoint(0, col, row))])
            for position, (net, (col, row)) in enumerate(cells)
        ]
        problem = LayoutDecomposer(design, grid).build_problem(units)
        assert problem.stitch_edges == [(("x", 2), ("x", 3)), (("x", 4), ("x", 5))]

    def test_conflict_report_uses_shared_checker(self):
        design, grid, solution = self.make_routed(seed=43)
        result = LayoutDecomposer(design, grid).decompose(solution)
        recount = ConflictChecker(design, grid).check(result.solution).conflict_count
        assert recount == result.conflicts

    def test_conflict_report_is_computed_on_first_read(self, monkeypatch):
        design, grid, solution = self.make_routed(seed=43)
        scans = []
        check = ConflictChecker.check

        def counted_check(checker, scanned):
            scans.append(scanned)
            return check(checker, scanned)

        monkeypatch.setattr(ConflictChecker, "check", counted_check)
        result = LayoutDecomposer(design, grid).decompose(solution)
        assert scans == []
        first, second = result.conflicts, result.conflicts
        assert first == second
        assert scans == [result.solution]


def test_import_leaves_networkx_unloaded():
    """``repro`` and the experiment harness need no third-party graph library."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.eval.experiments; print('networkx' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


class TestRouterComparison:
    def test_mrtpl_beats_dac2012_on_stitches_and_conflicts(self):
        spec = small_spec(seed=47, nets=12)
        design_ours = generate_design(spec)
        grid_ours = RoutingGrid(design_ours)
        ours = MrTPLRouter(design_ours, grid=grid_ours, use_global_router=False).run()
        ours_eval = evaluate_solution(design_ours, grid_ours, ours)

        design_base = generate_design(spec)
        grid_base = RoutingGrid(design_base)
        base = Dac2012Router(design_base, grid=grid_base, use_global_router=False).run()
        base_eval = evaluate_solution(design_base, grid_base, base)

        assert ours_eval.conflicts <= base_eval.conflicts
        assert ours_eval.stitches <= base_eval.stitches
