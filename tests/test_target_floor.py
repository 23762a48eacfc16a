"""The target floor: ``SearchCore.run(target_floor=...)`` and its stop rule.

Every adapter passes the least entry cost beyond the base step of any
accepted target (``CostModel.target_floor``), and the run ends on its best
target entry as soon as no other target entry can pop first.  On guided
grids loaded with history, foreign-owned target vertices and colour
pressure, these tests check:

* the floor is a lower bound: in every mode, each edge the interpreted
  expand closure offers into a target costs at least ``h(u) + floor``;
* the rule is exact: with the floor and with 0, the reached node, its path
  and the costs and aux bits along it agree in all three modes on both
  tiers, while the floor cuts expansions;
* the native and interpreted tiers agree on every label, on
  ``expansions`` and on ``floor_stops`` with the floor on;
* edge cases: a seed that is a target, the maze router's occupied-target
  rejection (a rejected target does not feed the floor), no accepted
  target at all;
* a run's labelled box covers an unlabelled target whose entry cost set the
  floor, so the pool's ``ExploredTracker`` bounds every vertex it read.
"""

import random

import pytest

from repro import accel
from repro.dr.cost import CostModel, TargetBounds
from repro.geometry import GridPoint
from repro.grid import NUM_DIRECTIONS, RoutingGrid
from repro.native.spec import MODE_COLOR_STATE, MODE_MASK_EXPANDED, MODE_TRADITIONAL
from repro.sched.executor import ExploredTracker
from repro.search import SUCC_CAPACITY
from tests.test_native_kernel import HAVE_KERNEL
from tests.test_search_window import (
    ENGINES,
    _brute_force_box,
    _label_bytes,
    _open_design,
    guided_design,
    guides_of,
)

MODES = {"maze": MODE_TRADITIONAL, "color-state": MODE_COLOR_STATE, "dac2012": MODE_MASK_EXPANDED}
TIERS = [True, False] if HAVE_KERNEL else [False]


def _load(grid, design, rng):
    """Load history, foreign metal and colour pressure, much of it on the
    nets' target vertices, the way rip-up rounds leave a dense grid."""
    vertices = [
        GridPoint(layer, col, row)
        for layer in range(grid.num_layers)
        for col in range(grid.num_cols)
        for row in range(grid.num_rows)
    ]
    for vertex in rng.sample(vertices, len(vertices) // 10):
        grid.add_history(vertex, rng.uniform(1.0, 40.0))
    for index, vertex in enumerate(rng.sample(vertices, len(vertices) // 30)):
        grid.occupy(vertex, f"foreign{index % 5}")
        grid.set_vertex_color(vertex, f"foreign{index % 5}", rng.randrange(3))
    for net in design.nets:
        for pin in net.pins[1:]:
            for vertex in grid.pin_access_vertices(pin):
                if rng.random() < 0.8:
                    grid.add_history(vertex, rng.uniform(5.0, 120.0))
                if rng.random() < 0.2:
                    grid.occupy(vertex, "squatter")
                    grid.set_vertex_color(vertex, "squatter", rng.randrange(3))


def _loaded(seed):
    """Return ``(design, grid, cost model)`` for a loaded guided design."""
    design = guided_design(seed)
    grid = RoutingGrid(design)
    _load(grid, design, random.Random(seed))
    return design, grid, CostModel(grid, guides_of(design))


def _pin_to_pin(engine, mode, grid, net):
    """One pin-to-pin search of *net* through the adapter's ``search``."""
    sources = grid.pin_access_nodes(net.pins[0])
    targets = {node for pin in net.pins[1:] for node in grid.pin_access_nodes(pin)}
    if mode == "maze":
        engine.search([(node, 0) for node in sources], targets, net.name)
    elif mode == "color-state":
        engine.search([(node, 0b111) for node in sources], targets, net.name)
    else:
        engine.search(
            [(node, mask) for node in sources for mask in range(3)], sorted(targets), net.name
        )


def _chain(core):
    """The reached node's path with the exact cost and aux of every node."""
    if not core.found:
        return None
    cost = core.cost
    return [(node, cost[node].hex(), core.aux_at(node)) for node in core.node_path()]


def _searches(mode, seed, native, floor_on, patch):
    """Search every net of the loaded design on one tier, floor on or off.

    Returns ``(rows, floor_stops)``, one ``(window, reached, chain,
    expansions, labels)`` row per core run.
    """
    prev = accel.set_native_enabled(native)
    try:
        with patch.context() as scope:
            if not floor_on:
                scope.setattr(CostModel, "target_floor", lambda self, *args, **kwargs: 0.0)
            design, grid, model = _loaded(seed)
            engine = ENGINES[mode](grid, model)
            rows = []
            engine.core.on_result = lambda core: rows.append(
                (core._window, core.reached, _chain(core), core.expansions, _label_bytes(core))
            )
            for net in design.nets:
                _pin_to_pin(engine, mode, grid, net)
            return rows, engine.core.floor_stops
    finally:
        accel.set_native_enabled(prev)


def _design_seeds(seed, rng_rounds):
    return [1000 * seed + offset for offset in range(max(1, rng_rounds // 20))]


@pytest.mark.parametrize("mode", list(ENGINES))
@pytest.mark.parametrize("seed", range(3))
def test_every_edge_into_a_target_costs_at_least_h_plus_floor(mode, seed, rng_rounds):
    stride = 3 if mode == "dac2012" else 1
    succ_node = [0] * SUCC_CAPACITY
    succ_cost = [0.0] * SUCC_CAPACITY
    succ_aux = [0] * SUCC_CAPACITY
    checked = positive = 0
    for design_seed in _design_seeds(seed, rng_rounds):
        design, grid, model = _loaded(design_seed)
        engine = ENGINES[mode](grid, model)
        neighbors = grid.neighbor_table()
        for net in design.nets:
            vertices = {v for pin in net.pins[1:] for v in grid.pin_access_vertices(pin)}
            indices = {grid.index_of(v) for v in vertices}
            bounds = TargetBounds.from_nodes(indices, grid.route_dims)
            targets = {index * stride + mask for index in indices for mask in range(stride)}
            floor = model.target_floor(net.name, grid.net_id(net.name), targets, MODES[mode])
            positive += floor > 0.0
            expand = engine.make_expand(net.name)
            # Every non-target node with an edge into a target.
            tails = set()
            for node in targets:
                vertex = node // stride
                for direction in range(NUM_DIRECTIONS):
                    other = neighbors[vertex * NUM_DIRECTIONS + direction]
                    if other >= 0:
                        tails.add(other * stride + node % stride)
                tails.update(vertex * stride + mask for mask in range(stride))
            for tail in sorted(tails - targets):
                h = model.heuristic_bounds(grid.vertex_of(tail // stride), bounds)
                for bits in (0b000, 0b100, 0b011, 0b111) if mode == "color-state" else (0,):
                    count = expand(tail, 0.0, bits, succ_node, succ_cost, succ_aux)
                    for slot in range(count):
                        if succ_node[slot] in targets:
                            assert succ_cost[slot] >= h + floor - 1e-9, (tail, succ_node[slot])
                            checked += 1
    assert checked > 0 and positive > 0


@pytest.mark.parametrize("native", TIERS, ids=lambda native: "native" if native else "python")
@pytest.mark.parametrize("mode", list(ENGINES))
@pytest.mark.parametrize("seed", range(3))
def test_floor_returns_the_same_route_as_no_floor(mode, seed, native, rng_rounds, monkeypatch):
    stops = 0
    saved = 0
    for design_seed in _design_seeds(seed, rng_rounds):
        with_floor, floor_stops = _searches(mode, design_seed, native, True, monkeypatch)
        without, no_stops = _searches(mode, design_seed, native, False, monkeypatch)
        assert no_stops == 0
        # Window, reached node, and the cost and aux of every node of its path.
        assert [row[:3] for row in with_floor] == [row[:3] for row in without]
        assert all(a[3] <= b[3] for a, b in zip(with_floor, without))
        stops += floor_stops
        saved += sum(row[3] for row in without) - sum(row[3] for row in with_floor)
    assert stops > 0 and saved > 0  # the floor ended searches early


@pytest.mark.skipif(not HAVE_KERNEL, reason="native kernel unavailable (no compiler?)")
@pytest.mark.parametrize("mode", list(ENGINES))
@pytest.mark.parametrize("seed", range(3))
def test_tiers_agree_with_the_floor_on(mode, seed, rng_rounds, monkeypatch):
    for design_seed in _design_seeds(seed, rng_rounds):
        native = _searches(mode, design_seed, True, True, monkeypatch)
        python = _searches(mode, design_seed, False, True, monkeypatch)
        assert native == python  # every label, expansions and floor_stops
        assert native[1] > 0


# -- edge cases ----------------------------------------------------------------


def _open_grid():
    return RoutingGrid(_open_design())


@pytest.mark.parametrize("native", TIERS, ids=lambda native: "native" if native else "python")
@pytest.mark.parametrize("mode", list(ENGINES))
def test_a_seed_that_is_a_target_is_reached_at_once(mode, native):
    prev = accel.set_native_enabled(native)
    try:
        grid = _open_grid()
        engine = ENGINES[mode](grid, CostModel(grid))
        seed_vertex, far = GridPoint(0, 3, 3), GridPoint(0, 12, 12)
        for vertex in (seed_vertex, far):
            grid.add_history(vertex, 30.0)
        results = []
        engine.core.on_result = results.append
        _pin_to_pin_vertices(engine, mode, [seed_vertex], {seed_vertex, far})
        (core,) = results
        assert core.reached // (3 if mode == "dac2012" else 1) == grid.index_of(seed_vertex)
        assert core.expansions == 1
        assert core.node_path() == [core.reached]
    finally:
        accel.set_native_enabled(prev)


def _pin_to_pin_vertices(engine, mode, sources, targets, **kwargs):
    index_of = engine.grid.index_of
    nodes = [index_of(v) for v in targets]
    if mode == "maze":
        return engine.search([(index_of(v), 0) for v in sources], nodes, "n1", **kwargs)
    if mode == "color-state":
        return engine.search([(index_of(v), 0b111) for v in sources], nodes, "n1")
    return engine.search(
        [(index_of(v), mask) for v in sources for mask in range(3)], nodes, "n1"
    )


def _spy_floor(patch):
    """Record every ``target_floor`` call's nodes and value."""
    calls = []
    real = CostModel.target_floor

    def spy(self, net_name, net_id, nodes, *args):
        nodes = list(nodes)
        value = real(self, net_name, net_id, nodes, *args)
        calls.append((nodes, value))
        return value

    patch.setattr(CostModel, "target_floor", spy)
    return calls


@pytest.mark.parametrize("native", TIERS, ids=lambda native: "native" if native else "python")
def test_a_rejected_target_does_not_feed_the_floor(native, monkeypatch):
    """With ``allow_occupied_targets=False`` a foreign-owned target is
    searched through like any vertex: its low entry cost (the occupancy
    penalty alone) does not lower the floor, and the route equals the one
    found with no floor."""
    prev = accel.set_native_enabled(native)
    try:
        routes = []
        for floor_on in (True, False):
            with monkeypatch.context() as patch:
                if not floor_on:
                    patch.setattr(CostModel, "target_floor", lambda self, *args, **kwargs: 0.0)
                calls = _spy_floor(patch) if floor_on else []
                grid = _open_grid()
                rules = grid.rules
                squatted, near, far = GridPoint(0, 2, 3), GridPoint(0, 4, 5), GridPoint(0, 14, 14)
                grid.occupy(squatted, "squatter")
                heavy = 2 * rules.occupancy_penalty / rules.history_weight
                grid.add_history(near, heavy)
                grid.add_history(far, heavy + 10.0)
                engine = ENGINES["maze"](grid, CostModel(grid))
                results = []
                engine.core.on_result = results.append
                found = _pin_to_pin_vertices(
                    engine, "maze", [GridPoint(0, 1, 1)], {squatted, near, far},
                    allow_occupied_targets=False,
                )
                (core,) = results
                routes.append((found.reached, _chain(core)))
                if floor_on:
                    ((nodes, value),) = calls
                    assert sorted(nodes) == sorted(grid.index_of(v) for v in (near, far))
                    assert value == rules.alpha * (rules.history_weight * heavy)
                    assert value > rules.alpha * rules.occupancy_penalty
                    assert engine.core.floor_stops == 1
                    assert core.is_labelled(grid.index_of(squatted))  # searched through
        assert routes[0] == routes[1]
        assert routes[0][0] == grid.index_of(GridPoint(0, 4, 5))
    finally:
        accel.set_native_enabled(prev)


@pytest.mark.parametrize("native", TIERS, ids=lambda native: "native" if native else "python")
def test_no_accepted_target_gives_floor_zero_and_fails(native, monkeypatch):
    prev = accel.set_native_enabled(native)
    try:
        calls = _spy_floor(monkeypatch)
        grid = _open_grid()
        targets = {GridPoint(0, 6, 6), GridPoint(0, 9, 2)}
        for vertex in targets:
            grid.occupy(vertex, "squatter")
        engine = ENGINES["maze"](grid, CostModel(grid))
        found = _pin_to_pin_vertices(
            engine, "maze", [GridPoint(0, 1, 1)], targets, allow_occupied_targets=False
        )
        assert not found.found
        assert calls == [([], 0.0)]
        assert engine.core.floor_stops == 0
    finally:
        accel.set_native_enabled(prev)


# -- the pool's explored box ---------------------------------------------------------


@pytest.mark.parametrize("native", TIERS, ids=lambda native: "native" if native else "python")
@pytest.mark.parametrize("mode", list(ENGINES))
def test_box_covers_an_unlabelled_target_that_set_the_floor(mode, native, monkeypatch):
    """The near target is reached; the far one, never labelled, has the
    lower entry cost and so set the floor that stopped the run.  Its cell
    lies in the result's labelled box and in ``ExploredTracker``'s."""
    prev = accel.set_native_enabled(native)
    try:
        calls = _spy_floor(monkeypatch)
        grid = _open_grid()
        near, far = GridPoint(0, 5, 5), GridPoint(0, 15, 15)
        grid.add_history(near, 40.0)
        grid.add_history(far, 38.0)
        engine = ENGINES[mode](grid, CostModel(grid))
        stride = 3 if mode == "dac2012" else 1
        tracker = ExploredTracker(grid, stride)
        results = []

        def observe(core):
            results.append(core)
            tracker(core)

        engine.core.on_result = observe
        _pin_to_pin_vertices(engine, mode, [GridPoint(0, 1, 1)], {near, far})
        (core,) = results
        assert engine.core.floor_stops == 1
        assert core.reached // stride == grid.index_of(near)
        (_nodes, value), = calls
        assert value == grid.rules.alpha * (grid.rules.history_weight * 38.0)
        assert not any(core.is_labelled(grid.index_of(far) * stride + m) for m in range(stride))
        labelled = _brute_force_box(core, grid, stride)
        assert labelled[3] < 15  # the labels alone leave the far target out
        box = core.labelled_planar_box(grid.plane_size, grid.num_rows, stride)
        assert box == labelled[:3] + (15,)
        assert tracker.box == box
    finally:
        accel.set_native_enabled(prev)
