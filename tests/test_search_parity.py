"""Search-adapter behaviour and flat-index / GridPoint API equivalence.

Whole-solution parity of every search tier is pinned by the committed
digests of ``tests/test_golden_solutions.py``; these tests cover the
adapters' edge cases (occupied targets, empty target sets), the one
expansion closure each net route builds, the grid's index/GridPoint API
equivalence and the Alg. 2 equal-cost color-state merge.
"""

import pytest

from repro.bench import suite_case
from repro.dr.cost import CostModel
from repro.dr.router import DetailedRouter
from repro.geometry import GridPoint
from repro.grid import ALL_DIRECTIONS, DIRECTION_INDEX, RoutingGrid
from repro.tpl.color_state import ColorState, GREEN, RED
from repro.tpl.search import ColorStateSearch
from tests.test_grid import make_design


class TestRouterParity:
    """Adapter edge cases on the flat engine."""

    @pytest.mark.parametrize("allow_occupied", [True, False])
    def test_occupied_target_rule(self, allow_occupied):
        from repro.dr.maze import MazeRouter

        grid = RoutingGrid(make_design())
        source, target = GridPoint(0, 2, 5), GridPoint(0, 8, 5)
        grid.occupy(target, "squatter")
        result = MazeRouter(grid, CostModel(grid)).search(
            [(grid.index_of(source), 0)],
            {grid.index_of(target)},
            "n",
            allow_occupied_targets=allow_occupied,
        )
        assert result.found == allow_occupied

    def test_empty_target_results_expose_empty_views(self):
        from repro.dr.maze import MazeRouter

        design = make_design()
        grid = RoutingGrid(design)
        seed = grid.index_of(GridPoint(0, 1, 1))
        maze_result = MazeRouter(grid, CostModel(grid)).search([(seed, 0)], set(), "n")
        assert not maze_result.found and maze_result.reached is None
        assert maze_result.parents == {} and maze_result.costs == {}
        color_result = ColorStateSearch(grid, CostModel(grid)).search(
            [(seed, ColorState.all().bits)], set(), "n"
        )
        assert not color_result.found and color_result.reached is None
        assert color_result.labels == {}

    @pytest.mark.parametrize("router_key", ["maze", "color-state", "dac2012"])
    def test_one_expand_closure_per_net_route(self, router_key, monkeypatch):
        """Every search of a net route shares one closure, dropped after it,
        and the closure carries the route's only native spec.  Every engine
        is called on flat indices: ``(index, aux)`` seeds and int targets."""
        from repro import accel
        from repro.native import spec as native_spec
        from tests.test_native_kernel import random_design, router_classes

        design = random_design(1)
        router = router_classes()[router_key](design, max_iterations=1)
        engine = router.make_search_engine()
        builds, searches, routes, specs = [], [], [], []
        make_expand, search = engine.make_expand, engine.search
        make_spec = native_spec.NativeExpandSpec
        monkeypatch.setattr(
            engine, "make_expand", lambda name: (builds.append(name), make_expand(name))[1]
        )

        def flat_search(seeds, targets, net_name):
            assert all(type(node) is int and type(aux) is int for node, aux in seeds)
            assert targets and all(type(node) is int for node in targets)
            searches.append(net_name)
            return search(seeds, targets, net_name)

        monkeypatch.setattr(engine, "search", flat_search)
        monkeypatch.setattr(
            native_spec,
            "NativeExpandSpec",
            lambda **fields: (specs.append(routes[-1]), make_spec(**fields))[1],
        )
        for net in design.routable_nets():
            routes.append(net.name)
            router.compute_route(net, engine)
            assert engine._route_expand is None
        assert len(searches) > len(routes)  # some routes search more than once
        assert builds == routes
        native = accel.get_native_kernel() is not None
        assert specs == (routes if native else [])


class TestGridIndexApi:
    """The flat-index surface: index round trips, neighbour table, state queries."""

    def test_index_roundtrip_and_neighbor_table(self):
        grid = RoutingGrid(make_design())
        table = grid.neighbor_table()
        for vertex in [GridPoint(0, 0, 0), GridPoint(1, 5, 7), GridPoint(2, 20, 20)]:
            index = grid.index_of(vertex)
            assert grid.vertex_of(index) == vertex
            for direction in ALL_DIRECTIONS:
                expected = grid.neighbor(vertex, direction)
                entry = table[index * 6 + DIRECTION_INDEX[direction]]
                if expected is None:
                    assert entry == -1
                else:
                    assert entry == grid.index_of(expected)

    def test_state_queries_match_between_surfaces(self):
        grid = RoutingGrid(make_design(color=1))
        vertex = GridPoint(0, 5, 5)
        index = grid.index_of(vertex)
        grid.occupy(vertex, "a")
        grid.occupy(vertex, "b")
        grid.add_history(vertex, 1.5)
        grid.set_vertex_color(GridPoint(0, 6, 5), "b", 2)
        net_id = grid.net_id("c")
        rules = grid.rules
        assert grid.is_occupied_by_other_index(index, net_id)
        assert grid.congestion_cost_index(index, net_id) == (
            rules.history_weight * 1.5 + rules.occupancy_penalty
        )
        assert grid.color_costs_index(index)[2] == rules.conflict_cost
        assert grid.occupants(vertex) == {"a", "b"}
        grid.release_net("a")
        assert grid.occupants(vertex) == {"b"}
        assert not grid.is_occupied_by_other_index(index, grid.net_id("b"))

    def test_step_cost_matches_gridpoint_path(self):
        grid = RoutingGrid(make_design())
        model = CostModel(grid)
        grid.add_history(GridPoint(0, 6, 5), 2.0)
        grid.occupy(GridPoint(0, 6, 5), "other")
        vertex = GridPoint(0, 5, 5)
        for direction in ALL_DIRECTIONS:
            neighbor = grid.neighbor(vertex, direction)
            if neighbor is None:
                continue
            via_shim = model.rules.alpha * model.traditional_cost(
                vertex, direction, neighbor, "n1"
            )
            via_index = model.step_cost_index(
                vertex.layer,
                DIRECTION_INDEX[direction],
                grid.index_of(neighbor),
                "n1",
                grid.net_id_if_known("n1"),
            )
            assert via_shim == via_index

    def test_release_net_uses_reverse_index(self):
        grid = RoutingGrid(make_design())
        for col in range(3, 9):
            grid.occupy(GridPoint(0, col, 4), "wide")
        assert grid.release_net("wide") == 6
        assert grid.release_net("wide") == 0
        assert grid.occupants(GridPoint(0, 4, 4)) == set()


class TestColorStateMerge:
    """Equal-cost revisits must merge color states (paper Alg. 2)."""

    def test_equal_cost_paths_keep_both_masks(self):
        grid = RoutingGrid(make_design())
        search = ColorStateSearch(grid, CostModel(grid))
        # Two seeds on one horizontal (preferred-direction) row, constrained
        # to different single masks, equidistant from the middle vertex: the
        # two arrivals tie on cost, so the middle must keep BOTH masks.
        left = GridPoint(0, 2, 10)
        right = GridPoint(0, 10, 10)
        middle = GridPoint(0, 6, 10)
        target = GridPoint(0, 6, 2)
        index_of = grid.index_of
        result = search.search(
            [
                (index_of(left), ColorState.single(RED).bits),
                (index_of(right), ColorState.single(GREEN).bits),
            ],
            {index_of(target)},
            "merge-net",
        )
        assert result.found
        state = result.color_state_of(middle)
        assert state.allows(RED) and state.allows(GREEN)

    def test_merged_labels_between_seeds(self):
        """Each seed's single mask spreads along the row; only the
        equidistant midpoint merges both, and the merged state propagates
        to the vertices expanded from it."""
        grid = RoutingGrid(make_design())
        index_of = grid.index_of
        sources = [
            (index_of(GridPoint(0, 2, 10)), ColorState.single(RED).bits),
            (index_of(GridPoint(0, 10, 10)), ColorState.single(GREEN).bits),
        ]
        result = ColorStateSearch(grid, CostModel(grid)).search(
            sources, {index_of(GridPoint(0, 6, 2))}, "n"
        )
        assert result.found
        red, green = ColorState.single(RED), ColorState.single(GREEN)
        both = ColorState(red.bits | green.bits)
        labels = result.labels
        for col in range(2, 11):
            label = labels[GridPoint(0, col, 10)]
            assert label.cost == abs(col - (2 if col <= 6 else 10))
            assert label.color_state == (red if col < 6 else green if col > 6 else both)
        assert labels[GridPoint(0, 6, 9)].color_state == both


class TestHistoryDecayWiring:
    """decay_history defaults to the DesignRules factor and is loop-driven."""

    def test_decay_uses_rules_factor_by_default(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 3, 3)
        grid.add_history(vertex, 2.0)
        grid.decay_history()
        assert grid.history(vertex) == pytest.approx(2.0 * grid.rules.history_decay)

    def test_routers_decay_each_negotiation_iteration(self, monkeypatch):
        case = suite_case("ispd18", 1, scale=0.5)
        router = DetailedRouter(case.build())
        calls = []
        original = router.grid.decay_history
        monkeypatch.setattr(
            router.grid,
            "decay_history",
            lambda factor=None: (calls.append(factor), original(factor))[1],
        )
        solution = router.run()
        assert len(calls) == solution.iterations
        assert all(factor == router.grid.rules.history_decay for factor in calls)
