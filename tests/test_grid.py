"""Tests for the routing grid, GCell grid and routed-result structures."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.decomposer import LayoutDecomposer
from repro.check import IncrementalConflictChecker
from repro.design import Design, Net, Obstacle, Pin
from repro.dr import DRCChecker
from repro.geometry import GridPoint, Point, Rect
from repro.grid import (
    ALL_DIRECTIONS,
    Direction,
    GCellGrid,
    NetRoute,
    PLANAR_DIRECTIONS,
    RoutingGrid,
    RoutingSolution,
    Stitch,
)
from repro.grid.gcell import GCell
from repro.tech import make_default_tech
from repro.tpl import ConflictChecker


def make_design(color=-1, die=80):
    tech = make_default_tech(num_layers=3, color_spacing=8)
    design = Design(name="grid-test", tech=tech, die_area=Rect(0, 0, die, die))
    pin_a = Pin(name="a")
    pin_a.add_shape(0, Rect(4, 4, 8, 8))
    pin_b = Pin(name="b")
    pin_b.add_shape(0, Rect(60, 60, 64, 64))
    design.add_net(Net(name="n1", pins=[pin_a, pin_b]))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(20, 20, 28, 28), name="blk"))
    if color >= 0:
        design.add_obstacle(Obstacle(layer=0, rect=Rect(40, 40, 48, 44), name="fx", color=color))
    return design


class TestDirections:
    def test_deltas_and_opposites(self):
        assert Direction.EAST.delta == (0, 1, 0)
        assert Direction.UP.is_via and not Direction.EAST.is_via
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert len(PLANAR_DIRECTIONS) == 4 and len(ALL_DIRECTIONS) == 6


class TestRoutingGrid:
    def test_dimensions_and_bounds(self):
        grid = RoutingGrid(make_design())
        assert grid.num_layers == 3
        assert grid.num_cols == 21 and grid.num_rows == 21
        assert grid.in_bounds(GridPoint(0, 0, 0))
        assert not grid.in_bounds(GridPoint(0, 21, 0))
        assert not grid.in_bounds(GridPoint(3, 0, 0))

    def test_physical_mapping_roundtrip(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(1, 3, 5)
        point = grid.physical_point(vertex)
        assert point == Point(12, 20)
        assert grid.nearest_vertex(1, point) == vertex

    def test_vertices_covering(self):
        grid = RoutingGrid(make_design())
        covered = grid.vertices_covering(0, Rect(4, 4, 8, 8))
        assert GridPoint(0, 1, 1) in covered and GridPoint(0, 2, 2) in covered
        assert len(covered) == 4

    def test_blockages_from_design(self):
        grid = RoutingGrid(make_design())
        assert grid.is_blocked_index(grid.index_of(GridPoint(1, 6, 6)))
        assert not grid.is_blocked_index(grid.index_of(GridPoint(0, 6, 6)))

    def test_pin_access_vertices_avoid_blockages(self):
        design = make_design()
        grid = RoutingGrid(design)
        pin = design.nets[0].pins[0]
        vertices = grid.pin_access_vertices(pin)
        assert vertices and all(v.layer == 0 for v in vertices)
        assert all(not grid.is_blocked_index(grid.index_of(v)) for v in vertices)

    def test_pin_access_cache_follows_blockages_and_restores(self):
        design = make_design()
        grid = RoutingGrid(design)
        pin = design.nets[0].pins[0]
        vertices = grid.pin_access_vertices(pin)
        assert grid.pin_access_nodes(pin) == tuple(map(grid.index_of, vertices))
        grid.pin_access_vertices(pin).clear()  # the caller's own list
        assert grid.pin_access_vertices(pin) == vertices
        other = RoutingGrid(design)
        other.block_vertex(vertices[0])
        grid.restore_state(other.snapshot_state())
        assert grid.pin_access_vertices(pin) == vertices[1:]
        grid.block_rect(0, Rect(4, 4, 4, 8))
        assert grid.pin_access_vertices(pin) == [v for v in vertices if v.col != 1]

    def test_neighbors_at_corner(self):
        grid = RoutingGrid(make_design())
        neighbors = dict(grid.neighbors(GridPoint(0, 0, 0)))
        assert Direction.WEST not in neighbors and Direction.SOUTH not in neighbors
        assert Direction.DOWN not in neighbors
        assert Direction.EAST in neighbors and Direction.UP in neighbors

    def test_base_edge_cost_prefers_layer_direction(self):
        grid = RoutingGrid(make_design())
        horizontal_layer_vertex = GridPoint(0, 5, 5)
        assert grid.base_edge_cost(horizontal_layer_vertex, Direction.EAST) == 1.0
        assert grid.base_edge_cost(horizontal_layer_vertex, Direction.NORTH) == pytest.approx(
            grid.rules.wrong_way_penalty
        )
        assert grid.base_edge_cost(horizontal_layer_vertex, Direction.UP) == pytest.approx(
            grid.rules.via_cost
        )

    def test_occupancy_and_congestion(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 5, 5)
        assert grid.congestion_cost_index(grid.index_of(vertex), grid.net_id_if_known("n1")) == 0.0
        grid.occupy(vertex, "other")
        assert grid.is_occupied_by_other_index(grid.index_of(vertex), grid.net_id_if_known("n1"))
        assert grid.congestion_cost_index(grid.index_of(vertex), grid.net_id_if_known("n1")) >= grid.rules.occupancy_penalty
        assert grid.congestion_cost_index(grid.index_of(vertex), grid.net_id_if_known("other")) == 0.0

    def test_history(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 2, 2)
        grid.add_history(vertex, 2.0)
        assert grid.history(vertex) == 2.0
        grid.decay_history(0.5)
        assert grid.history(vertex) == 1.0

    def test_color_costs_reflect_committed_metal(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 5, 5)
        neighbor = GridPoint(0, 6, 5)
        assert grid.color_costs_index(grid.index_of(vertex)) == [0.0, 0.0, 0.0]
        grid.set_vertex_color(neighbor, "other", 2)
        costs = grid.color_costs_index(grid.index_of(vertex))
        assert costs == [0.0, 0.0, grid.rules.conflict_cost]
        assert grid.color_costs_index(grid.index_of(vertex))[2] == costs[2]
        # The coloured vertex lies in its own window: pressure is every
        # committed coloured vertex's, whoever asks.
        assert grid.color_costs_index(grid.index_of(neighbor)) == costs

    def test_release_net_clears_colors_and_pressure(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 6, 5)
        probe = GridPoint(0, 5, 5)
        grid.occupy(vertex, "other")
        grid.set_vertex_color(vertex, "other", 1)
        assert grid.color_costs_index(grid.index_of(probe))[1] > 0
        released = grid.release_net("other")
        assert released == 1
        assert grid.vertex_color_index(grid.index_of(vertex)) is None
        assert grid.color_costs_index(grid.index_of(probe)) == [0.0, 0.0, 0.0]

    def test_release_keeps_remaining_owners_color(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 6, 5)
        for net, color in (("a", 1), ("b", 2)):
            grid.occupy(vertex, net)
            grid.set_vertex_color(vertex, net, color)
        assert grid.release_net("b") == 1
        assert grid.occupants(vertex) == {"a"}
        assert grid.vertex_color_index(grid.index_of(vertex)) == 1

    def test_release_clears_colors_placed_without_occupancy(self):
        grid = RoutingGrid(make_design())
        alone = GridPoint(0, 2, 2)
        grid.set_vertex_color(alone, "a", 1)
        # "a" also colours a vertex that "b" occupies and has coloured.
        shared = GridPoint(0, 9, 9)
        grid.occupy(shared, "b")
        grid.set_vertex_color(shared, "b", 2)
        grid.set_vertex_color(shared, "a", 0)
        # ... and one that "c" occupies without a colour.
        bare = GridPoint(0, 14, 14)
        grid.occupy(bare, "c")
        grid.set_vertex_color(bare, "a", 1)
        assert grid.release_net("a") == 0
        assert grid.vertex_color_index(grid.index_of(alone)) is None
        assert grid.vertex_color_index(grid.index_of(shared)) == 2
        assert grid.vertex_color_index(grid.index_of(bare)) is None
        assert grid.snapshot_statistics()["colored"] == 1

    def test_fixed_colored_obstacle_pressure(self):
        grid = RoutingGrid(make_design(color=1))
        near = grid.nearest_vertex(0, Point(44, 46))
        costs = grid.color_costs_index(grid.index_of(near))
        assert costs[1] > 0 and costs[0] == 0.0

    def test_recolor_same_vertex_replaces_pressure(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 6, 5)
        probe = GridPoint(0, 5, 5)
        grid.set_vertex_color(vertex, "other", 0)
        grid.set_vertex_color(vertex, "other", 2)
        costs = grid.color_costs_index(grid.index_of(probe))
        assert costs[0] == 0.0 and costs[2] > 0

    def test_pressure_matches_bruteforce(self):
        design = make_design(color=2)
        grid = RoutingGrid(design)
        dcolor = grid.rules.color_spacing_on(0)
        cost = grid.rules.conflict_cost
        probes = [GridPoint(0, c, r) for c in range(3, 14) for r in range(3, 14)]
        placed = {}

        def brute():
            # Independent reference: the L-infinity rect gap to every placed
            # vertex and pre-colored obstacle, no offset table involved.
            expected = {}
            for probe in probes:
                rect = grid.vertex_rect(probe)
                costs = [0.0, 0.0, 0.0]
                for (vertex, _net), color in placed.items():
                    if rect.distance_to(grid.vertex_rect(vertex)) < dcolor:
                        costs[color] += cost
                for obstacle in design.colored_obstacles():
                    if obstacle.layer == 0 and rect.distance_to(obstacle.rect) < dcolor:
                        costs[obstacle.color] += cost
                expected[probe] = costs
            return expected

        def observed():
            return {probe: grid.color_costs_index(grid.index_of(probe)) for probe in probes}

        def place(vertex, net, color):
            grid.set_vertex_color(vertex, net, color)
            placed[(vertex, net)] = color

        assert observed() == brute()
        assert any(costs[2] for costs in brute().values())
        place(GridPoint(0, 5, 5), "x", 0)
        place(GridPoint(0, 10, 10), "z", 2)
        without_y = observed()
        assert without_y == brute()
        place(GridPoint(0, 6, 5), "y", 0)
        place(GridPoint(0, 7, 6), "y", 1)
        assert observed() == brute()
        # A recolour replaces the vertex's old mask contribution.
        place(GridPoint(0, 6, 5), "y", 2)
        assert observed() == brute()
        # Releasing the net restores the exact pressure it found.
        grid.release_net("y")
        del placed[(GridPoint(0, 6, 5), "y")], placed[(GridPoint(0, 7, 6), "y")]
        assert observed() == without_y == brute()

    def test_unnamed_fixed_obstacle_name_is_deterministic(self):
        def build():
            design = make_design()
            design.add_obstacle(Obstacle(layer=0, rect=Rect(40, 40, 48, 44), color=1))
            return RoutingGrid(design)

        grid, twin = build(), build()
        snapshot = grid.snapshot_state()
        assert snapshot == twin.snapshot_state()
        # A strap is colour pressure on the grid, not an interned net.
        assert snapshot["net_names"] == []
        fixed = [name for name, _obstacle in grid.design.fixed_color_nets()]
        assert fixed == ["__fixed__0"]
        route = NetRoute("n1", grid.route_dims)
        route.add_path([GridPoint(0, 10, 9), GridPoint(0, 11, 9)])
        for vertex in route.vertices:
            route.set_color(vertex, 1)
        solution = RoutingSolution(design_name=grid.design.name)
        solution.add_route(route)
        for checker in (ConflictChecker, IncrementalConflictChecker):
            report = checker(grid.design, grid).check(solution)
            assert [conflict.net_b for conflict in report.conflicts] == fixed
        decomposer = LayoutDecomposer(grid.design, grid)
        problem = decomposer.build_problem(decomposer.extract_units(solution))
        assert [node for node, _index in problem.fixed_colors] == fixed

    def test_snapshot_format_v4_round_trip_and_v3_rejected(self):
        grid = RoutingGrid(make_design(color=1))
        grid.occupy(GridPoint(0, 5, 5), "n1")
        grid.set_vertex_color(GridPoint(0, 5, 5), "n1", 2)
        grid.add_history(GridPoint(0, 5, 5), 0.5)
        snapshot = grid.snapshot_state()
        assert snapshot["format"] == "repro-grid-snapshot-v4"
        assert "net_pressure" not in snapshot and "epoch" not in snapshot
        fresh = RoutingGrid(make_design(color=1))
        fresh.restore_state(snapshot)
        assert json.dumps(fresh.snapshot_state(), sort_keys=True) == json.dumps(
            snapshot, sort_keys=True
        )
        with pytest.raises(ValueError, match="not a repro-grid-snapshot"):
            fresh.restore_state(dict(snapshot, format="repro-grid-snapshot-v3"))

    def test_reset_routing_state_keeps_blockages_and_fixed_colors(self):
        grid = RoutingGrid(make_design(color=0))
        grid.occupy(GridPoint(0, 5, 5), "n1")
        grid.set_vertex_color(GridPoint(0, 5, 5), "n1", 1)
        grid.reset_routing_state()
        stats = grid.snapshot_statistics()
        assert stats["occupied"] == 0 and stats["colored"] == 0
        assert grid.is_blocked_index(grid.index_of(GridPoint(1, 6, 6)))
        near_fixed = grid.nearest_vertex(0, Point(44, 46))
        assert grid.color_costs_index(grid.index_of(near_fixed))[0] > 0


class TestGCellGrid:
    def test_cell_mapping(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16, capacity=4)
        assert gcells.num_gx == 5 and gcells.num_gy == 5
        cell = gcells.cell_of_point(0, Point(17, 3))
        assert cell == GCell(0, 1, 0)
        assert gcells.cell_rect(cell) == Rect(16, 0, 32, 16)

    def test_usage_and_congestion(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16, capacity=2)
        a, b = GCell(1, 0, 0), GCell(1, 1, 0)
        base = gcells.congestion_cost(a, b)
        for _ in range(3):
            gcells.add_usage(a, b)
        assert gcells.usage(a, b) == 3
        assert gcells.congestion_cost(a, b) > base
        assert gcells.total_overflow() > 0

    def test_blockage_reduces_capacity(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16, capacity=4)
        blocked_cell = gcells.cell_of_point(1, Point(24, 24))
        free_cell = GCell(1, 4, 4)
        assert gcells.effective_capacity(blocked_cell) < gcells.effective_capacity(free_cell)


#: ``route_dims`` of every ``make_design`` grid.
DIMS = RoutingGrid(make_design()).route_dims


def connects_every_vertex(route):
    """Return whether *route*'s metal is one component, by the DRC oracle."""
    design = make_design()
    drc = DRCChecker(design, RoutingGrid(design))
    return drc.route_connects_all(route, [[vertex] for vertex in route.vertices])


class TestNetRoute:
    def test_add_path_and_metrics(self):
        route = NetRoute("n", DIMS)
        path = [GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(1, 1, 0), GridPoint(1, 1, 1)]
        route.add_path(path)
        assert route.wirelength() == 2 and route.via_count() == 1
        assert connects_every_vertex(route)

    def test_connects_all(self):
        design = make_design()
        drc = DRCChecker(design, RoutingGrid(design))
        route = NetRoute("n", DIMS)
        route.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0)])
        groups = [[GridPoint(0, 0, 0)], [GridPoint(0, 2, 0)]]
        assert drc.route_connects_all(route, groups)
        assert not drc.route_connects_all(route, groups + [[GridPoint(0, 9, 9)]])

    def test_disconnected_route(self):
        route = NetRoute("n", DIMS)
        route.add_edge(GridPoint(0, 0, 0), GridPoint(0, 1, 0))
        route.add_edge(GridPoint(0, 5, 5), GridPoint(0, 6, 5))
        assert not connects_every_vertex(route)

    def test_stitch_canonical_order(self):
        a, b = GridPoint(0, 2, 2), GridPoint(0, 1, 2)
        stitch = Stitch("n", a, b)
        assert stitch.a == b and stitch.b == a
        assert Stitch("n", a, b) == Stitch("n", b, a)

    def test_recount_stitches(self):
        route = NetRoute("n", DIMS)
        path = [GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0)]
        route.add_path(path)
        route.set_color(path[0], 0)
        route.set_color(path[1], 0)
        route.set_color(path[2], 2)
        assert route.stitch_count() == 1
        assert route.stitches == {Stitch("n", path[1], path[2])}
        route.set_color(path[2], 0)
        assert route.stitch_count() == 0
        assert route.stitches == frozenset()

    def test_color_validation(self):
        route = NetRoute("n", DIMS)
        with pytest.raises(ValueError):
            route.set_color(GridPoint(0, 0, 0), 5)

    def test_bulk_colors_match_single_colors(self):
        pairs = [(5, 1), (6, 1), (6, 2), (40, 0), (5, 1)]
        bulk, single = NetRoute("n", DIMS), NetRoute("n", DIMS)
        bulk.set_node_colors(pairs)
        for node, color in pairs:
            single.set_node_color(node, color)
        assert bulk == single and list(bulk.node_colors) == list(single.node_colors)
        revision = bulk.revision
        with pytest.raises(ValueError):
            bulk.set_node_colors([(7, 0), (8, 3)])
        assert bulk == single and bulk.revision == revision

    def test_adjacency(self):
        route = NetRoute("n", DIMS)
        route.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0)])
        adjacency = route.adjacency()
        assert len(adjacency[route.node_of(GridPoint(0, 1, 0))]) == 2


class TestRoutingSolution:
    def test_totals_and_ownership(self):
        solution = RoutingSolution(design_name="d")
        route_a = NetRoute("a", DIMS)
        route_a.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0)])
        route_a.set_color(GridPoint(0, 0, 0), 0)
        route_b = NetRoute("b", DIMS, routed=False)
        solution.add_route(route_a)
        solution.add_route(route_b)
        assert solution.total_wirelength() == 1
        assert len(solution.routed_nets()) == 1 and len(solution.failed_nets()) == 1
