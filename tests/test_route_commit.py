"""The route commit against per-vertex commits, and the invariant it guards.

:meth:`RoutingGrid.commit_route` applies one net's whole route log in one
pass.  Random route logs go through it on one grid and entry by
entry through the public mutators :meth:`RoutingGrid.occupy` /
:meth:`RoutingGrid.set_vertex_color` on an identically built twin; after
every commit both grids must hold the same
:meth:`RoutingGrid.snapshot_state` (pressure bytes included), and after
every release each vertex the released net occupied or coloured must carry
the mask of its single remaining owner, or no colour.

A route log is derived from the net's route alone
(:func:`repro.sched.commit.route_log`); committing it must leave the grid
as the per-vertex mutators do, one call per vertex the route commits.

Every router computes a route against a grid that holds none of the net's
metal, so ``compute_route`` must leave the grid untouched, and the route
commit refuses a net that already holds metal.

Pressure stamps run in the native kernel's ``stamp_pressure`` when the
search tier is native, else in the grid's own loop: the op-by-op and
brute-force tests run on the active tier and again with the native tier
off, and the kernel is compared with the loop stamp for stamp.

Run longer campaigns with ``pytest tests/test_route_commit.py
--rng-rounds=200`` (the CI nightly job does).
"""

from collections import Counter

import pytest

from repro import accel
from repro.baselines import Dac2012Router
from repro.bench import suite_case
from repro.design import Design, Obstacle
from repro.dr import DetailedRouter
from repro.geometry import GridPoint, Rect
from repro.grid import OP_COLOR, OP_OCCUPY, NetRoute, RoutingGrid
from repro.native import load_kernel
from repro.sched import GridSink, route_log
from repro.tech import DesignRules, make_default_tech
from repro.tpl import MrTPLRouter
from repro.tpl.conflict import ColorConflict, ConflictReport
from repro.utils import SeededRNG

PITCH = 4
NETS = ("a", "b", "c", "d")

needs_kernel = pytest.mark.skipif(
    not accel.native_available(), reason="native kernel unavailable (no compiler?)"
)


@pytest.fixture
def python_stamp():
    """Run the test with the native tier, and so the native stamp, off."""
    previous = accel.set_native_enabled(False)
    yield
    accel.set_native_enabled(previous)


def random_params(rng):
    """Draw the rules and die of one random grid (layer 2 is not TPL)."""
    return {
        "color_spacing": rng.choice((5, 8, 11)),
        "layer1_spacing": rng.choice((3, 9, 14)),
        "wire_width": rng.choice((1, 2)),
        "cols": rng.randint(5, 10),
        "rows": rng.randint(5, 10),
        "strap": (rng.randint(0, 1), rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 2)),
    }


def build_grid(params):
    rules = DesignRules(
        color_spacing=params["color_spacing"],
        wire_width=params["wire_width"],
        color_spacing_per_layer={1: params["layer1_spacing"]},
    )
    tech = make_default_tech(
        num_layers=3,
        pitch=PITCH,
        color_spacing=params["color_spacing"],
        tpl_layer_count=2,
        rules=rules,
    )
    die = Rect(0, 0, (params["cols"] - 1) * PITCH, (params["rows"] - 1) * PITCH)
    design = Design(name="commit", tech=tech, die_area=die)
    layer, x, y, color = params["strap"]
    design.add_obstacle(
        Obstacle(layer=layer, rect=Rect(x, y, x + 4, y + 1), name="strap", color=color)
    )
    return RoutingGrid(design)


def random_log(rng, grid, net_id, foreign, coverage):
    """Return one random route log of *net_id*: occupy and colour ops.

    Vertices come from anywhere (the non-TPL layer 2 and layer 1 with its
    own ``Dcolor`` included), from the die edge, where the pressure window
    clips, and from *foreign* -- other nets' metal, which makes
    multi-owner vertices.  Some vertices are coloured twice, some coloured
    but not occupied.
    """
    cols, rows = grid.num_cols, grid.num_rows
    ops = []
    colored = []
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        if foreign and roll < 0.25:
            index = rng.choice(foreign)
            coverage["multi-owner"] += 1
        else:
            layer = rng.randint(0, grid.num_layers - 1)
            col, row = rng.randint(0, cols - 1), rng.randint(0, rows - 1)
            if roll > 0.75:
                col = rng.choice((0, cols - 1))
            if roll > 0.9:
                row = rng.choice((0, rows - 1))
            index = (layer * cols + col) * rows + row
        layer, rem = divmod(index, grid.plane_size)
        col, row = divmod(rem, rows)
        reach = grid.track_reach(grid.rules.color_spacing_on(layer))
        if not (reach <= col < cols - reach and reach <= row < rows - reach):
            coverage["clipped"] += 1
        coverage[f"layer{layer}"] += 1
        if rng.random() < 0.8:
            ops.append((OP_COLOR, net_id, index, rng.randint(0, 2)))
            colored.append(index)
            if rng.random() < 0.2:
                continue  # colour without occupancy
        ops.append((OP_OCCUPY, net_id, index))
        if colored and rng.random() < 0.3:
            ops.append((OP_COLOR, net_id, rng.choice(colored), rng.randint(0, 2)))
            coverage["recolour"] += 1
    return ops


@pytest.mark.parametrize("seed", [5, 29])
def test_route_commit_matches_op_by_op(seed, rng_rounds):
    check_commit_matches_op_by_op(seed, rng_rounds)


@pytest.mark.parametrize("seed", [5, 29])
def test_route_commit_matches_op_by_op_on_python_stamp(seed, rng_rounds, python_stamp):
    check_commit_matches_op_by_op(seed, rng_rounds)


def check_commit_matches_op_by_op(seed, rng_rounds):
    rng = SeededRNG(seed)
    coverage = Counter()
    for round_number in range(rng_rounds):
        params = random_params(rng)
        routed, stepped = build_grid(params), build_grid(params)
        net_ids = {name: [grid.net_id(name) for grid in (routed, stepped)] for name in NETS}
        metal, occupied, colors = {}, {}, {}
        for step in range(8):
            name = rng.choice(NETS)
            context = f"seed {seed}, round {round_number}, step {step}"
            if name in metal:
                released = metal.pop(name)
                del occupied[name], colors[name]
                for grid in (routed, stepped):
                    grid.release_net(name)
                    for index in released:
                        owners = [net for net, held in occupied.items() if index in held]
                        expected = colors[owners[0]].get(index) if len(owners) == 1 else None
                        assert grid.vertex_color_index(index) == expected, context
                coverage["release"] += 1
            foreign = sorted(index for indices in metal.values() for index in indices)
            net_id = net_ids[name][0]
            assert net_ids[name][1] == net_id
            ops = random_log(rng, routed, net_id, foreign, coverage)
            routed.commit_route(ops)
            for op in ops:
                vertex = stepped.vertex_of(op[2])
                if op[0] == OP_OCCUPY:
                    stepped.occupy(vertex, name)
                else:
                    stepped.set_vertex_color(vertex, name, op[3])
            metal[name] = {op[2] for op in ops}
            occupied[name] = {op[2] for op in ops if op[0] == OP_OCCUPY}
            colors[name] = {op[2]: op[3] for op in ops if op[0] == OP_COLOR}
            assert routed.snapshot_state() == stepped.snapshot_state(), context
    for case in ("recolour", "multi-owner", "layer1", "layer2", "clipped", "release"):
        assert coverage[case] > 0, coverage


def brute_pressure(grid, colors):
    """Return the pressure buffer that the straps and *colors* (``index -> mask``) give.

    An independent reference: ``Rect.distance_to`` below the layer's
    ``Dcolor`` between vertex metal rectangles, no offset table involved.
    """
    expected = [0.0] * (3 * grid.num_vertices)
    cost = grid.rules.conflict_cost
    shapes = [
        (vertex, grid.vertex_rect(vertex), color)
        for vertex, color in ((grid.vertex_of(index), color) for index, color in colors.items())
    ]
    for index in range(grid.num_vertices):
        vertex = grid.vertex_of(index)
        if not grid.tech.layers[vertex.layer].tpl:
            continue
        rect = grid.vertex_rect(vertex)
        dcolor = grid.rules.color_spacing_on(vertex.layer)
        for other, other_rect, color in shapes:
            if other.layer == vertex.layer and rect.distance_to(other_rect) < dcolor:
                expected[3 * index + color] += cost
        for obstacle in grid.design.colored_obstacles():
            if obstacle.layer == vertex.layer and rect.distance_to(obstacle.rect) < dcolor:
                expected[3 * index + obstacle.color] += cost
    return expected


@pytest.mark.parametrize("seed", [7, 31])
def test_route_commit_pressure_matches_brute_force(seed, rng_rounds):
    """Stamps clip exactly at the die edge, per layer ``Dcolor``, TPL layers only."""
    check_pressure_matches_brute_force(seed, rng_rounds)


@pytest.mark.parametrize("seed", [7, 31])
def test_route_commit_pressure_matches_brute_force_on_python_stamp(
    seed, rng_rounds, python_stamp
):
    check_pressure_matches_brute_force(seed, rng_rounds)


def check_pressure_matches_brute_force(seed, rng_rounds):
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        grid = build_grid(random_params(rng))
        ops = random_log(rng, grid, grid.net_id("a"), [], Counter())
        grid.commit_route(ops)
        colors = {op[2]: op[3] for op in ops if op[0] == OP_COLOR}
        assert list(grid.pressure_buffer()) == brute_pressure(grid, colors), round_number
        grid.release_net("a")
        assert list(grid.pressure_buffer()) == brute_pressure(grid, {}), round_number


def random_stamps(rng, grid):
    """Return ``(nodes, colors)`` of random stamps, die edges and every layer included."""
    nodes, colors = [], []
    for _ in range(rng.randint(0, 12)):
        col = rng.choice((0, grid.num_cols - 1, rng.randint(0, grid.num_cols - 1)))
        row = rng.choice((0, grid.num_rows - 1, rng.randint(0, grid.num_rows - 1)))
        layer = rng.randint(0, grid.num_layers - 1)
        nodes.append((layer * grid.num_cols + col) * grid.num_rows + row)
        colors.append(rng.randint(0, 2))
    return nodes, colors


@needs_kernel
@pytest.mark.parametrize("seed", [3, 17])
def test_native_stamp_matches_python_stamp(seed, rng_rounds):
    """Both tiers add in one order, so even amounts that round agree bit for bit."""
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        params = random_params(rng)
        native, python = build_grid(params), build_grid(params)
        for _ in range(rng.randint(1, 4)):
            nodes, colors = random_stamps(rng, native)
            amount = rng.choice((6.0, -6.0, 0.1, -0.7))
            for grid, tier in ((native, True), (python, False)):
                previous = accel.set_native_enabled(tier)
                try:
                    grid._stamp_pressure(nodes, colors, amount)
                finally:
                    accel.set_native_enabled(previous)
        context = f"seed {seed}, round {round_number}"
        assert native.pressure_buffer().tobytes() == python.pressure_buffer().tobytes(), context


@needs_kernel
def test_native_stamp_rejects_bad_input_and_leaves_buffer_unchanged():
    grid = build_grid(random_params(SeededRNG(2)))
    grid.commit_route([(OP_COLOR, grid.net_id("a"), 5, 1)])
    kernel = load_kernel()
    pressure = grid.pressure_buffer()
    before = pressure.tobytes()
    last = grid.num_vertices - 1
    dims = (grid.num_cols, grid.num_rows, grid._stamp_reaches)
    for nodes, colors in (
        ([0, -1], [0, 0]),
        ([0, last + 1], [0, 0]),
        ([0, last], [1, 3]),
        ([last], [-1]),
        ([0, 1], [0]),
    ):
        with pytest.raises(ValueError):
            kernel.stamp_pressure(pressure, nodes, colors, 6.0, *dims)
        assert pressure.tobytes() == before, (nodes, colors)
    with pytest.raises(ValueError):
        kernel.stamp_pressure(pressure[:-1], [0], [0], 6.0, *dims)


ROUTERS = {"maze": DetailedRouter, "color-state": MrTPLRouter, "dac2012": Dac2012Router}


def make_router(router_key):
    design = suite_case("ispd18", 1, 0.4).build()
    if router_key == "maze":
        return DetailedRouter(design)
    return ROUTERS[router_key](design, use_global_router=False)


@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_compute_route_leaves_grid_untouched_and_commit_guards_it(router_key):
    router = make_router(router_key)
    grid = router.grid
    nets = router.schedule_nets()
    for net in nets[:6]:
        router.route_net(net)
    for net in nets[6:9]:
        grid.net_id(net.name)  # the net's first search interns it
        before = grid.snapshot_state()
        route = router.compute_route(net)
        assert grid.snapshot_state() == before, net.name
        ops = route_log(grid, route)
        assert ops
        grid.commit_route(ops)
        committed = grid.snapshot_state()
        with pytest.raises(ValueError, match="already holds metal"):
            grid.commit_route(ops)
        assert grid.snapshot_state() == committed
        grid.release_net(net.name)
        grid.commit_route(ops)
        assert grid.snapshot_state()["owner"] == committed["owner"]


def random_route(rng, grid, name, foreign):
    """Return a random route of net *name* on *grid*, routed or failed.

    Its vertices come from anywhere on the grid and from *foreign* (other
    nets' vertices, which makes multi-owner vertices); most are coloured,
    a few of them twice, and some stay uncoloured.
    """
    route = NetRoute(name, grid.route_dims)
    route.routed = rng.random() < 0.6
    for _ in range(rng.randint(0, 10)):
        if foreign and rng.random() < 0.25:
            node = rng.choice(foreign)
        else:
            node = rng.randint(0, grid.num_vertices - 1)
        route.nodes.add(node)
        if rng.random() < 0.7:
            route.set_node_color(node, rng.randint(0, 2))
    for node in list(route.node_colors)[: rng.randint(0, 2)]:
        route.set_node_color(node, rng.randint(0, 2))
    return route


def commit_per_vertex(grid, route):
    """Commit *route* through the public mutators, one call per vertex.

    A routed route occupies every vertex, a failed one only its coloured
    vertices; then every colour is set, in the route's colour order.
    """
    sink = GridSink(grid, route.net_name)
    for node in route.nodes if route.routed else route.node_colors:
        sink.occupy(node)
    for node, color in route.node_colors.items():
        sink.set_color(node, color)


@pytest.mark.parametrize("seed", [7, 31])
def test_route_log_commits_what_per_vertex_mutators_commit(seed, rng_rounds):
    """A route's log lists its occupancy, then its colours in order, and
    its route commit leaves the grid as the per-vertex mutators do --
    releases in between included."""
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        params = random_params(rng)
        logged, direct = build_grid(params), build_grid(params)
        foreign = []
        for name in NETS:
            route = random_route(rng, logged, name, foreign)
            context = f"seed {seed}, round {round_number}, net {name}"
            ops = route_log(logged, route)
            net_id = logged.net_id(name)
            occupied = route.nodes if route.routed else route.node_colors
            assert ops == [(OP_OCCUPY, net_id, node) for node in occupied] + [
                (OP_COLOR, net_id, node, color) for node, color in route.node_colors.items()
            ], context
            logged.commit_route(ops)
            commit_per_vertex(direct, route)
            assert logged.snapshot_state() == direct.snapshot_state(), context
            foreign.extend(route.nodes)
            if rng.random() < 0.3:
                logged.release_net(name)
                direct.release_net(name)
                assert logged.snapshot_state() == direct.snapshot_state(), context


def test_route_commit_refuses_mixed_logs_unchanged():
    grid = build_grid(random_params(SeededRNG(1)))
    first, second = grid.net_id("a"), grid.net_id("b")
    before = grid.snapshot_state()
    for ops in (
        [(OP_OCCUPY, first, 3), (OP_OCCUPY, second, 4)],
        [(OP_COLOR, first, 3, 1), ("history", 3, 1.0)],
        [(OP_COLOR, first, 3)],
    ):
        with pytest.raises(ValueError):
            grid.commit_route(ops)
        assert grid.snapshot_state() == before


@pytest.mark.parametrize("seed", [13, 43])
def test_bulk_history_matches_per_vertex_history(seed, rng_rounds):
    """``add_history_nodes`` leaves the grid as one ``add_history`` per
    vertex does, decays in between included."""
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        params = random_params(rng)
        bulk, single = build_grid(params), build_grid(params)
        for _ in range(rng.randint(1, 4)):
            nodes = list({rng.randint(0, bulk.num_vertices - 1) for _ in range(rng.randint(0, 12))})
            amount = rng.choice((0.25, 1.0, 1.5))
            bulk.add_history_nodes(nodes, amount)
            for node in nodes:
                single.add_history(single.vertex_of(node), amount)
            if rng.random() < 0.5:
                bulk.decay_history()
                single.decay_history()
        context = f"seed {seed}, round {round_number}"
        assert bulk.snapshot_state() == single.snapshot_state(), context


@pytest.mark.parametrize("seed", [13, 43])
def test_conflict_history_matches_per_location_history(seed, rng_rounds):
    """The rip-up step's conflict history in one call
    (``ConflictReport.conflict_nodes`` into ``add_history_nodes``) leaves
    the grid as one ``add_history`` per location does: report order,
    repeated locations and locations off the grid included."""
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        params = random_params(rng)
        bulk, single = build_grid(params), build_grid(params)
        locations = []
        for _ in range(rng.randint(0, 12)):
            if locations and rng.random() < 0.3:
                locations.append(rng.choice(locations))
            elif rng.random() < 0.1:
                locations.append(GridPoint(bulk.num_layers, 0, 0))
            else:
                locations.append(bulk.vertex_of(rng.randint(0, bulk.num_vertices - 1)))
        report = ConflictReport(
            [ColorConflict("a", "b", location.layer, 0, location) for location in locations]
        )
        bulk.add_history_nodes(report.conflict_nodes(bulk), 1.0)
        for location in locations:
            single.add_history(location, 1.0)
        context = f"seed {seed}, round {round_number}"
        assert bulk.snapshot_state() == single.snapshot_state(), context
        assert list(bulk._history_touched) == list(single._history_touched), context
