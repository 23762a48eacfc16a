"""Tests for Steiner topology, global routing and guides."""

import hashlib
import json
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import SyntheticSpec, generate_design, suite_case
from repro.geometry import Point
from repro.gr import GlobalRouter, GuideSet, RouteGuide, build_steiner_tree, rectilinear_mst
from repro.gr.steiner import hanan_steiner_points, mst_length
from repro.grid.gcell import GCell, GCellGrid
from repro.io.json_io import design_to_dict

points = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: Point(*t)),
    min_size=2,
    max_size=8,
    unique=True,
)


class TestSteiner:
    def test_mst_two_points(self):
        edges = rectilinear_mst([Point(0, 0), Point(3, 4)])
        assert len(edges) == 1
        assert edges[0][0].manhattan_distance(edges[0][1]) == 7

    def test_mst_spans_all_points(self):
        pts = [Point(0, 0), Point(10, 0), Point(0, 10), Point(10, 10)]
        edges = rectilinear_mst(pts)
        assert len(edges) == 3

    def test_duplicate_points_collapse(self):
        assert rectilinear_mst([Point(1, 1), Point(1, 1)]) == []

    def test_hanan_grid(self):
        pts = [Point(0, 0), Point(4, 8)]
        hanan = hanan_steiner_points(pts)
        assert Point(0, 8) in hanan and Point(4, 0) in hanan
        assert Point(0, 0) not in hanan

    def test_steiner_improves_on_l_shape(self):
        pts = [Point(0, 0), Point(10, 0), Point(5, 8)]
        tree = build_steiner_tree(pts)
        assert tree.is_connected()
        assert tree.length() <= mst_length(pts)

    def test_single_terminal(self):
        tree = build_steiner_tree([Point(3, 3)])
        assert tree.edges == [] and tree.is_connected()

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: Point(*t)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_int_mst_length_matches_mst_edges(self, pts):
        # Duplicates allowed: they join the tree at distance 0.
        assert mst_length(pts) == sum(a.manhattan_distance(b) for a, b in rectilinear_mst(pts))

    @given(points)
    @settings(max_examples=30, deadline=None)
    def test_steiner_never_worse_than_mst_and_connected(self, pts):
        tree = build_steiner_tree(pts)
        assert tree.is_connected()
        assert tree.length() <= mst_length(pts)
        assert tree.two_pin_connections() == tree.edges


def small_design():
    spec = SyntheticSpec(
        name="gr-test", seed=5, cols=20, rows=20, num_layers=3, num_nets=8,
        obstacle_count=2, net_radius=8, row_spacing=3, cell_spacing=3,
    )
    return generate_design(spec)


class TestGuides:
    def test_route_guide_membership_and_expansion(self):
        design = small_design()
        gcells = GCellGrid(design, gcell_size=16)
        guide = RouteGuide("n")
        guide.add_cell(GCell(0, 1, 1))
        assert guide.covers_cell(GCell(0, 1, 1))
        grown = guide.expanded(gcells, margin_cells=1)
        assert GCell(0, 0, 0) in grown.cells and GCell(1, 1, 1) in grown.cells
        assert guide.layers() == {0}

    def test_guideset_point_queries(self):
        design = small_design()
        gcells = GCellGrid(design, gcell_size=16)
        guides = GuideSet(gcells)
        guide = RouteGuide("net_0")
        guide.add_cell(GCell(0, 0, 0))
        guides.add(guide)
        assert guides.covers_point("net_0", 0, Point(5, 5))
        assert not guides.covers_point("net_0", 0, Point(40, 40))
        # Unguided nets are never penalised.
        assert guides.covers_point("unknown", 0, Point(40, 40))
        assert guides.guide_of("missing") is None
        assert guides.net_names() == ["net_0"]

    def test_coverage_statistics(self):
        design = small_design()
        guides = GuideSet(GCellGrid(design, gcell_size=16))
        assert guides.coverage_statistics()["nets"] == 0


class TestGlobalRouter:
    def test_produces_guide_for_every_net(self):
        design = small_design()
        router = GlobalRouter(design, gcell_size=16, capacity=4)
        guides = router.route()
        assert len(guides) == len(design.routable_nets())
        for net in design.routable_nets():
            guide = guides.guide_of(net.name)
            assert guide is not None and guide.cells

    def test_guides_cover_all_pins(self):
        design = small_design()
        guides = GlobalRouter(design, gcell_size=16).route()
        for net in design.routable_nets():
            for pin in net.pins:
                center = pin.center()
                assert guides.covers_point(net.name, 0, center), (net.name, center)

    def test_congestion_is_tracked(self):
        design = small_design()
        router = GlobalRouter(design, gcell_size=16, capacity=1)
        router.route()
        # With unit capacity some boundary must be used at least once.
        assert sum(router.gcell_grid._usage.values()) > 0


# -- golden guides and designs ------------------------------------------------
#
# Pinned before global routing moved from GCell objects to flat gcell slots:
# the slot search, the per-slot capacities and the integer MST scoring must
# reproduce every guide cell, every boundary usage and the summed overflow
# of the GCell implementation, macro cases (reduced capacities) included.
# The design digests pin the synthetic generator byte for byte.


def golden_dense_spec(design_seed):
    """perfbench's dense ispd19-like test10 profile (44x44x4, no macro)."""
    return SyntheticSpec(
        name="dense_ispd19like_test10", seed=design_seed, cols=44, rows=44,
        num_layers=4, color_spacing=8, num_nets=134, min_pins=2, max_pins=6,
        multi_pin_bias=0.7, net_radius=10, obstacle_count=9, obstacle_span=5,
        colored_obstacle_fraction=0.6, macro_count=0, row_spacing=3,
        cell_spacing=3, strap_period=4,
    )


def golden_sparse_spec(design_seed):
    """perfbench's sparse test3 profile at 1.5x (144x144x4, short local nets)."""
    return SyntheticSpec(
        name="sparse_test3_x1.5", seed=design_seed, cols=144, rows=144,
        num_layers=4, color_spacing=8, num_nets=156, min_pins=2, max_pins=4,
        multi_pin_bias=0.55, net_radius=5, obstacle_count=4, obstacle_span=3,
        colored_obstacle_fraction=0.5, macro_count=0, row_spacing=4,
        cell_spacing=4, strap_period=4,
    )


GOLDEN_SPECS = {
    **{
        f"{suite}_test{number}": suite_case(suite, number, 0.5).spec
        for suite, number in (
            ("ispd18", 1), ("ispd18", 2), ("ispd18", 3), ("ispd18", 5),
            ("ispd19", 1), ("ispd19", 2), ("ispd19", 3), ("ispd19", 4),
        )
    },
    "dense_1910": golden_dense_spec(1910),
    "sparse_1910": golden_sparse_spec(1910),
}

#: ``sha256(json.dumps(design_to_dict(design), sort_keys=True))``.
GOLDEN_DESIGNS = {
    "ispd18_test1": "729136432c0ac37866ed6189a92d583b9616cff1168296dcea39e03e8cfb2a1d",
    "ispd18_test2": "dfd1740bc69c5f4afb4c7327bfac40690d70e90e6088e5b7124def9e2d952386",
    "ispd18_test3": "4a935ad67331d0e947efb17e9f2983741739895198d366a30b5333ee789969b7",
    "ispd18_test5": "62ea4e66518f39836e812f05b692075732be1089735e2c8f6d68a1af6dc579c8",
    "ispd19_test1": "6fb00d53f4bcf6ce8aab125b85c2c9bdca36b86cea2f7f8fba97226e5b4e3958",
    "ispd19_test2": "12821f4c6f515a69cfd41e92d1093be403f4858eea2c27debd17a7b7060a3587",
    "ispd19_test3": "e8c565c6128d8f94440df95bf30396b7ab7472ec691d8144df5f2d6c47822dde",
    "ispd19_test4": "08b73074a9f203587267d51f3ddd3beaa634620c8c704f80fd47b0d48006aa97",
    "dense_1910": "7a00d4e098e57a61b0b342d6f1201a84bcf9c0db049bfa2c027ff739ef7b62da",
    "sparse_1910": "35d952c848368526a9218e51caa95092335e9d7ba0101aba599fe7c343dc8129",
}

#: ``guides_digest`` of ``GlobalRouter(design).route()``.
GOLDEN_GUIDES = {
    "ispd18_test1": "bbecbbe29b2cf7d83031c495bc7f5d26f9d546d367899d413ddf1bd7ee24b0be",
    "ispd18_test2": "db9c3bc3a494db98e28d25f23f867313310f135c7b886f96eb4322ebc8035ca7",
    "ispd18_test3": "a6b6a8b35ae5ad7b3365d5581d16e5560918f522a7dea414606b3dd16f025709",
    "ispd18_test5": "05f432f2cf94d34c3b8c393bb8f374a67c5e9705d9e27284ea63f49486a232da",
    "ispd19_test1": "a61f0439fd51b1ca7da448ec796190cf8488e588c46b6dfb652b4233b4b40d34",
    "ispd19_test2": "d3f3d3018ac51dcd694c9f740257ee5b0db74084cc3efa534dd26968d45ed25d",
    "ispd19_test3": "78346db07b3a1343e85acb60490362414b8093e37748884cecca4d33e7ee7d11",
    "ispd19_test4": "9ffde93b58cb9ad53281fd629417bb189b1140915a518767fff77d650f88f6d7",
    "dense_1910": "090f5f7bcbd9660dffa17ac7ddd43b141ca1e3f25959ca8df31630c837927966",
    "sparse_1910": "8dd1b8196c5fde75bd78e97eed9ae581fd7a619f1d8dfd46d8510a813a3476d2",
}


@pytest.fixture(scope="module")
def golden_designs():
    return {name: generate_design(spec) for name, spec in GOLDEN_SPECS.items()}


def guides_digest(router, guides):
    """Return a sha256 over every guide cell, boundary usage and the overflow."""
    grid = router.gcell_grid
    cells = [
        (name, sorted((c.layer, c.gx, c.gy) for c in guides.guide_of(name).cells))
        for name in guides.net_names()
    ]
    usage = sorted(
        (astuple(grid.cell_of_slot(a)), astuple(grid.cell_of_slot(b)), amount)
        for (a, b), amount in grid._usage.items()
    )
    return hashlib.sha256(repr((cells, usage, grid.total_overflow())).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_generated_design_is_pinned(golden_designs, name):
    payload = json.dumps(design_to_dict(golden_designs[name]), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_DESIGNS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_GUIDES))
def test_global_routing_is_pinned(golden_designs, name):
    router = GlobalRouter(golden_designs[name])
    guides = router.route()
    assert guides_digest(router, guides) == GOLDEN_GUIDES[name]
