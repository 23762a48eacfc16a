"""Grid and search-core caches the engines share.

The frozen ``interaction_offsets`` cache, the per-net guide masks read
through one vertex -> gcell-slot map, identical solutions with the native
search kernel gated off, and the survival of a held
:class:`~repro.search.CoreResult` when its core is reused.
"""

import pytest

from repro import accel
from repro.bench import suite_case
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.dr.cost import CostModel
from repro.geometry import GridPoint
from repro.grid import RoutingGrid
from repro.search import SearchCore
from tests.test_grid import make_design


class TestInteractionOffsets:
    """The shared offset tables cannot be corrupted by a caller."""

    def test_interaction_offsets_cache_is_frozen(self):
        grid = RoutingGrid(make_design())
        offsets = grid.interaction_offsets(grid.rules.color_spacing)
        assert isinstance(offsets, tuple)
        with pytest.raises(TypeError):
            offsets[0] = (99, 99, 99)
        assert grid.interaction_offsets(grid.rules.color_spacing) == offsets


class TestSnapshotKernels:
    """Per-net guide masks == the scalar per-vertex guide queries."""

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


class TestRoutedSolutionParity:
    """Forced pure-Python fallback routes identically to the default path."""

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
        previous = accel.set_native_enabled(False)
        try:
            slow_solution = router_class(case.build()).run()
        finally:
            accel.set_native_enabled(previous)
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
