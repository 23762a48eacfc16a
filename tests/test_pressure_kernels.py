"""Differential tests: numpy-vectorised kernels vs the pure-Python oracle.

The vectorised kernels (color-pressure neighbourhood updates, the per-net
guide mask and the heuristic table) must be pure representation changes:
with the numpy gate forced off, the engines run the original scalar
loops, and both paths have to produce bit-identical grid state and
bit-identical routed solutions.  These tests pin that down with
seeded random workloads, plus the immutability of the shared
``interaction_offsets`` cache.
"""

import random

import pytest

from repro import accel
from repro.bench import suite_case
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.dr.cost import CostModel, TargetBounds
from repro.geometry import GridPoint
from repro.grid import RoutingGrid
from repro.search import SearchCore
from tests.test_grid import make_design

requires_numpy = pytest.mark.skipif(
    not accel.have_numpy(), reason="numpy not installed; vectorised path absent"
)


@pytest.fixture(autouse=True)
def numpy_on_when_available():
    """Run the differential tests with the gate open (when numpy exists).

    The tests compare both kernel generations themselves, so they must see
    the vectorised path even when the suite runs under
    ``REPRO_PURE_PYTHON=1`` (tests whose subject is the fallback close the
    gate themselves).
    """
    previous = accel.set_numpy_enabled(True)
    try:
        yield
    finally:
        accel.set_numpy_enabled(previous)


def _random_color_workload(grid: RoutingGrid, seed: int, rounds: int = 120) -> None:
    """Replay a seeded set_vertex_color / release_net mutation sequence."""
    rng = random.Random(seed)
    nets = [f"n{i}" for i in range(6)]
    colored: list = []
    for _ in range(rounds):
        if colored and rng.random() < 0.25:
            net = rng.choice(nets)
            grid.release_net(net)
            colored = [entry for entry in colored if entry[0] != net]
            continue
        net = rng.choice(nets)
        vertex = GridPoint(
            rng.randrange(grid.num_layers),
            rng.randrange(grid.num_cols),
            rng.randrange(grid.num_rows),
        )
        color = rng.randrange(3)
        grid.occupy(vertex, net)
        grid.set_vertex_color(vertex, net, color)
        colored.append((net, vertex))


def _overlay_snapshot(grid: RoutingGrid):
    return {
        net_id: {index: tuple(own) for index, own in overlay.items()}
        for net_id, overlay in grid._net_pressure.items()
    }


class TestPressureKernelDifferential:
    """numpy strided-slice pressure updates == pure-Python offset loop."""

    @requires_numpy
    @pytest.mark.parametrize("seed", [7, 21, 1234])
    def test_pressure_maps_bit_identical(self, seed):
        design = make_design(color=1)
        fast_grid = RoutingGrid(design)
        slow_grid = RoutingGrid(design)
        assert accel.numpy_enabled()
        _random_color_workload(fast_grid, seed)
        previous = accel.set_numpy_enabled(False)
        try:
            _random_color_workload(slow_grid, seed)
        finally:
            accel.set_numpy_enabled(previous)
        assert fast_grid.pressure_buffer().tolist() == slow_grid.pressure_buffer().tolist()
        assert _overlay_snapshot(fast_grid) == _overlay_snapshot(slow_grid)

    @requires_numpy
    def test_block_reach_matches_offsets(self):
        grid = RoutingGrid(make_design())
        for layer in range(grid.num_layers):
            radius = grid.rules.color_spacing_on(layer)
            reach = grid._interaction_block_reach(radius)
            offsets = grid.interaction_offsets(radius)
            assert reach is not None
            assert len(offsets) == (2 * reach + 1) ** 2

    def test_interaction_offsets_cache_is_frozen(self):
        grid = RoutingGrid(make_design())
        offsets = grid.interaction_offsets(grid.rules.color_spacing)
        assert isinstance(offsets, tuple)
        with pytest.raises(TypeError):
            offsets[0] = (99, 99, 99)
        assert grid.interaction_offsets(grid.rules.color_spacing) == offsets


class TestSnapshotKernels:
    """Build-once vectorised tables == the scalar per-vertex queries."""

    def test_guide_table_matches_point_queries(self):
        """Mask lookup == per-point guide query == reference table, for a
        guided net, an unguided net name and a model without guides."""
        from repro.gr import GlobalRouter

        design = suite_case("ispd18", 1, scale=0.5).build()
        grid = RoutingGrid(design)
        guides = GlobalRouter(design).route()
        net_name = design.routable_nets()[0].name
        assert guides.guide_of(net_name).cells
        guided = CostModel(grid, guides)
        costs = (grid.rules.out_of_guide_penalty, 0.0)
        for model, name in (
            (guided, net_name),
            (guided, "no-such-net"),
            (CostModel(grid), net_name),
        ):
            mask = model.guide_mask(name)
            slot_of = model.guide_slot_map()
            assert len(slot_of) == grid.num_vertices
            assert 0 <= min(slot_of) and max(slot_of) < len(mask)
            table = model.guide_penalty_table(name)
            for index in range(grid.num_vertices):
                penalty = model.out_of_guide_cost_index(index, name)
                assert costs[mask[slot_of[index]]] == penalty == table[index]
        assert 0.0 < sum(guided.guide_penalty_table(net_name))

    def test_guide_masks_after_campaign(self, monkeypatch):
        """A Mr.TPL campaign caches one gcell-sized mask per net and reads
        every mask through one shared vertex -> slot map."""
        from repro.tpl.mr_tpl import MrTPLRouter

        design = suite_case("ispd18", 1, scale=0.5).build()
        slot_maps = []
        original = CostModel.guide_slot_map

        def recording(model):
            slot_map = original(model)
            slot_maps.append(slot_map)
            return slot_map

        monkeypatch.setattr(CostModel, "guide_slot_map", recording)
        router = MrTPLRouter(design, max_iterations=1)
        router.run()
        model = router.cost_model
        gcells = router.guides.gcell_grid
        size = router.grid.num_layers * gcells.num_gx * gcells.num_gy
        assert model._guide_masks
        assert all(len(mask) == size for mask in model._guide_masks.values())
        assert slot_maps and all(slot_map is slot_maps[0] for slot_map in slot_maps)

    @requires_numpy
    def test_heuristic_table_matches_scalar(self):
        grid = RoutingGrid(make_design())
        core = SearchCore(grid, CostModel(grid))
        targets = {GridPoint(1, 4, 9), GridPoint(2, 12, 3)}
        bounds = TargetBounds.from_targets(targets)
        rules = grid.rules
        for stride in (1, 3):
            table = core._heuristic_table(bounds, stride)
            assert table is not None
            assert len(table) == grid.num_vertices * stride
            for node in range(0, grid.num_vertices * stride, 5):
                vertex = grid.vertex_of(node // stride)
                planar, layers = bounds.components_from(vertex)
                assert table[node] == rules.alpha * (planar + layers * rules.via_cost)


class TestRoutedSolutionParity:
    """Forced pure-Python fallback routes identically to the numpy path."""

    @requires_numpy
    @pytest.mark.parametrize("router_key", ["maze", "color-state", "dac2012"])
    def test_fallback_solutions_identical(self, router_key):
        from repro.baselines.dac2012 import Dac2012Router
        from repro.dr.router import DetailedRouter
        from repro.tpl.mr_tpl import MrTPLRouter

        router_class = {
            "maze": DetailedRouter,
            "color-state": MrTPLRouter,
            "dac2012": Dac2012Router,
        }[router_key]
        case = suite_case("ispd18", 1, scale=0.5)
        fast_solution = router_class(case.build()).run()
        previous = accel.set_numpy_enabled(False)
        try:
            slow_solution = router_class(case.build()).run()
        finally:
            accel.set_numpy_enabled(previous)
        assert solution_fingerprint(fast_solution) == solution_fingerprint(slow_solution)
        assert solution_metrics(fast_solution) == solution_metrics(slow_solution)


class TestBufferedProtocolCompat:
    """Results of the buffered expand protocol outlive the core's buffers."""

    def test_result_survives_core_reuse(self):
        """A held CoreResult is snapshotted before the core reuses buffers."""
        grid = RoutingGrid(make_design())
        model = CostModel(grid)
        core = SearchCore(grid, model)
        expand = __import__("repro.dr.maze", fromlist=["make_traditional_expand"]).make_traditional_expand(
            grid, model, "a", grid.net_id("a")
        )
        seeds = [(grid.index_of(GridPoint(0, 1, 1)), 0)]
        first_targets = {grid.index_of(GridPoint(0, 9, 9))}
        first = core.run(seeds, first_targets, expand)
        first_costs = dict(first.cost)
        first_path = first.node_path()
        # Reuse the same core for a different search; the held result must
        # keep answering from its snapshot.
        second = core.run(
            [(grid.index_of(GridPoint(2, 14, 2)), 0)],
            {grid.index_of(GridPoint(2, 2, 14))},
            expand,
        )
        assert second.found
        assert first.node_path() == first_path
        assert first.cost == first_costs
