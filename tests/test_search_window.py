"""The per-net search window: ``SearchCore.run(window=...)`` and its re-run.

A windowed search never generates a successor outside the window; one that
ends without a target is re-run over the whole grid.  These tests check:

* the native and interpreted tiers agree label for label on windowed
  searches in all three expansion modes, on guided designs where the window
  prunes;
* a target outside the window costs exactly one re-run, whose result is
  bit-identical to a search without a window, and ``on_result`` (so the
  pool's ``ExploredTracker``) sees both runs;
* the windowed labelled-box scan equals a brute-force scan of the stamps;
* ``GuideTables.search_window`` equals a brute-force bounding box over the
  guide cells;
* every router routes identically with the windows switched off.
"""

import random

import pytest

from repro import accel
from repro.baselines.dac2012 import Dac2012Router, MaskExpandedSearch
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.design import Design, Net, Obstacle
from repro.dr.cost import CostModel
from repro.dr.maze import MazeRouter
from repro.dr.router import DetailedRouter
from repro.geometry import GridPoint, Rect
from repro.gr import GlobalRouter, GuideSet, RouteGuide
from repro.gr.guide import SEARCH_WINDOW_MARGIN, GuideTables
from repro.grid import RoutingGrid
from repro.grid.gcell import GCell, GCellGrid
from repro.sched.executor import ExploredTracker
from repro.search import SearchCore
from repro.tech import make_default_tech
from repro.tpl.mr_tpl import MrTPLRouter
from repro.tpl.search import ColorStateSearch
from tests.test_native_kernel import _pin, needs_kernel

ROUTERS = (DetailedRouter, MrTPLRouter, Dac2012Router)
ENGINES = {"maze": MazeRouter, "color-state": ColorStateSearch, "dac2012": MaskExpandedSearch}


def guided_design(seed: int) -> Design:
    """Return a design whose nets are small against the die, so guide
    windows prune (8-DBU gcells, 4-DBU pitch): walls of blockage on the two
    lower layers, and 2-4-pin nets clear of the lowest layer's walls."""
    rng = random.Random(seed)
    size = 96
    tech = make_default_tech(num_layers=3, color_spacing=8)
    design = Design(name=f"guided_{seed}", tech=tech, die_area=Rect(0, 0, size, size))
    walls = []
    for index in range(rng.randint(6, 10)):
        x0 = rng.randrange(4, size - 32, 4)
        y0 = rng.randrange(4, size - 8, 4)
        length = rng.randrange(12, 33, 4)
        width, height = (length, 4) if rng.random() < 0.5 else (4, length)
        rect = Rect(x0, y0, min(x0 + width, size), min(y0 + height, size))
        layer = rng.randint(0, 1)
        if layer == 0:
            walls.append(rect)
        color = rng.choice((-1, 0, 1, 2))
        design.add_obstacle(Obstacle(layer=layer, rect=rect, name=f"obs_{index}", color=color))
    for index in range(rng.randint(10, 14)):
        net = Net(name=f"n{index}")
        cx = rng.randrange(16, size - 16, 4)
        cy = rng.randrange(16, size - 16, 4)
        for pin_index in range(rng.randint(2, 4)):
            while True:
                x = min(max(cx + rng.randrange(-20, 21, 4), 4), size - 4)
                y = min(max(cy + rng.randrange(-20, 21, 4), 4), size - 4)
                if not any(
                    r.xlo - 4 <= x <= r.xhi + 4 and r.ylo - 4 <= y <= r.yhi + 4 for r in walls
                ):
                    break
            net.add_pin(_pin(f"n{index}_p{pin_index}", 0, x, y))
        design.add_net(net)
    return design


def guides_of(design: Design) -> GuideSet:
    return GlobalRouter(design, gcell_size=8).route()


def _label_bytes(core):
    """Every label of a finished run as exact bits."""
    aux, parent = core.aux, core.parent
    return sorted((node, cost.hex(), aux[node], parent[node]) for node, cost in core.cost.items())


def _searches(mode, native, seed):
    """Search every net of ``guided_design(seed)`` pin to pin on one tier.

    Returns one ``(window, reached, expansions, labels)`` row per core run.
    """
    prev = accel.set_native_enabled(native)
    try:
        design = guided_design(seed)
        grid = RoutingGrid(design)
        model = CostModel(grid, guides_of(design))
        engine = ENGINES[mode](grid, model)
        rows = []
        engine.core.on_result = lambda core: rows.append(
            (core._window, core.reached, core.expansions, _label_bytes(core))
        )
        for net in design.nets:
            sources = grid.pin_access_nodes(net.pins[0])
            targets = {node for pin in net.pins[1:] for node in grid.pin_access_nodes(pin)}
            if mode == "maze":
                engine.search([(node, 0) for node in sources], targets, net.name)
            elif mode == "color-state":
                engine.search([(node, 0b111) for node in sources], targets, net.name)
            else:
                engine.search(
                    [(node, mask) for node in sources for mask in range(3)],
                    sorted(targets),
                    net.name,
                )
        return rows, engine.core.window_retries
    finally:
        accel.set_native_enabled(prev)


@needs_kernel
@pytest.mark.parametrize("mode", list(ENGINES))
@pytest.mark.parametrize("seed", range(3))
def test_tiers_agree_on_windowed_searches(mode, seed):
    native = _searches(mode, True, seed)
    python = _searches(mode, False, seed)
    assert native == python  # window, reached node, expansions, every label
    rows, _retries = native
    # The window is in force (smaller than the grid) on most of the nets.
    grid = RoutingGrid(guided_design(seed))
    full = (0, 0, grid.num_cols - 1, grid.num_rows - 1)
    windowed = [row for row in rows if row[0] is not None and row[0] != full]
    assert len(windowed) * 2 > len(rows)


def _open_design():
    tech = make_default_tech(num_layers=3, color_spacing=8)
    design = Design(name="window", tech=tech, die_area=Rect(0, 0, 64, 64))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(24, 24, 40, 28), name="o", color=1))
    design.add_net(Net(name="n1", pins=[_pin("a", 0, 4, 4), _pin("b", 0, 60, 60)]))
    return design


def _run(grid, mode, window, on_result=None):
    """One core run from (0, 1, 1) to (0, 15, 15); returns (core, result)."""
    engine = ENGINES[mode](grid, CostModel(grid))
    core = engine.core
    expand = engine.expand_for("n1")
    stride = 3 if mode == "dac2012" else 1
    source = grid.index_of(GridPoint(0, 1, 1))
    target = grid.index_of(GridPoint(0, 15, 15))
    if mode == "dac2012":
        seeds = [(source * 3, 0)]
        targets = {target * 3 + mask for mask in range(3)}
    else:
        seeds = [(source, 0b111 if mode == "color-state" else 0)]
        targets = {target}
    core.on_result = on_result
    result = core.run(
        seeds, targets, expand, node_stride=stride, merge_aux=mode == "color-state", window=window
    )
    return core, result


@pytest.mark.parametrize("native", [True, False])
@pytest.mark.parametrize("mode", list(ENGINES))
def test_target_outside_window_reruns_once_bit_identically(mode, native):
    if native and not accel.native_available():
        pytest.skip("native kernel unavailable (no compiler?)")
    prev = accel.set_native_enabled(native)
    try:
        stride = 3 if mode == "dac2012" else 1
        window = (0, 0, 9, 9)  # holds the source, not the target
        grid = RoutingGrid(_open_design())
        seen = []

        def observe(result):
            seen.append(
                (
                    result.found,
                    result.expansions,
                    _label_bytes(result),
                    result.labelled_planar_box(grid.plane_size, grid.num_rows, stride),
                )
            )

        core, windowed = _run(grid, mode, window, observe)
        assert core.window_retries == 1
        assert [found for found, *_ in seen] == [False, True]
        # Nothing outside the window was labelled by the first run.
        box = seen[0][3]
        assert box[0] >= 0 and box[1] >= 0 and box[2] <= 9 and box[3] <= 9

        _plain_core, plain = _run(RoutingGrid(_open_design()), mode, None)
        assert windowed.reached == plain.reached
        assert _label_bytes(windowed) == _label_bytes(plain)
        assert windowed.node_path() == plain.node_path()
        assert windowed.expansions == seen[0][1] + plain.expansions
        assert seen[1][1] == windowed.expansions  # on_result saw the returned result

        # The pool's tracker bounds what both runs labelled.
        tracker = ExploredTracker(grid, stride)
        _run(RoutingGrid(_open_design()), mode, window, tracker)
        first, second = seen[0][3], seen[1][3]
        assert tracker.box == (
            min(first[0], second[0]),
            min(first[1], second[1]),
            max(first[2], second[2]),
            max(first[3], second[3]),
        )
    finally:
        accel.set_native_enabled(prev)


def _brute_force_box(result, grid, stride):
    """The labelled planar box by a full scan of the stamp buffer."""
    cells = [
        divmod((node // stride) % grid.plane_size, grid.num_rows)
        for node in range(grid.num_vertices * stride)
        if result.is_labelled(node)
    ]
    if not cells:
        return None
    cols = [col for col, _ in cells]
    rows = [row for _, row in cells]
    return (min(cols), min(rows), max(cols), max(rows))


@pytest.mark.parametrize("mode", list(ENGINES))
def test_windowed_labelled_box_equals_full_scan(mode):
    """A windowed run scans only its window, plus its seeds outside it; a
    seed outside the window takes no via and no mask switch, on either
    tier."""
    stride = 3 if mode == "dac2012" else 1
    tiers = [True, False] if accel.native_available() else [False]
    labels = []
    for native in tiers:
        prev = accel.set_native_enabled(native)
        try:
            grid = RoutingGrid(_open_design())
            # The seed at (1, 1) lies just outside the window; the target inside.
            core, result = _run(grid, mode, (2, 1, 15, 15))
            assert result.found and core.window_retries == 0
            box = result.labelled_planar_box(grid.plane_size, grid.num_rows, stride)
            assert box == _brute_force_box(result, grid, stride)
            assert box[:2] == (1, 1)
            labels.append(_label_bytes(result))
        finally:
            accel.set_native_enabled(prev)
    assert all(tier == labels[0] for tier in labels)
    seed = grid.index_of(GridPoint(0, 1, 1)) * stride
    labelled = {node for node, *_ in labels[0]}
    assert [node for node in labelled if node // stride % grid.plane_size == seed // stride] == [seed]


def _random_guides(rng, design):
    gcells = GCellGrid(design, gcell_size=rng.choice((5, 8, 12, 16)))
    guides = GuideSet(gcells)
    for index in range(6):
        guide = RouteGuide(f"n{index}")
        for _ in range(rng.randint(0 if index == 0 else 1, 6)):
            # Cells on a layer past the stack are ignored.
            guide.add_cell(
                GCell(
                    rng.randrange(design.tech.num_layers + 1),
                    rng.randrange(gcells.num_gx),
                    rng.randrange(gcells.num_gy),
                )
            )
        guides.add(guide)
    return guides


def _brute_force_window(grid, guides, net_name):
    """Every grid column / row whose gcell (per ``cell_of_point``) lies in
    the guide's box grown by the margin."""
    gcells = guides.gcell_grid
    guide = guides.guide_of(net_name)
    cells = [
        cell
        for cell in (guide.cells if guide is not None else ())
        if 0 <= cell.layer < grid.num_layers
    ]
    if not cells:
        return None
    margin = SEARCH_WINDOW_MARGIN
    gx_lo = min(cell.gx for cell in cells) - margin
    gx_hi = max(cell.gx for cell in cells) + margin
    gy_lo = min(cell.gy for cell in cells) - margin
    gy_hi = max(cell.gy for cell in cells) + margin
    cols = [
        col
        for col in range(grid.num_cols)
        if gx_lo <= gcells.cell_of_point(0, grid.physical_point(GridPoint(0, col, 0))).gx <= gx_hi
    ]
    rows = [
        row
        for row in range(grid.num_rows)
        if gy_lo <= gcells.cell_of_point(0, grid.physical_point(GridPoint(0, 0, row))).gy <= gy_hi
    ]
    if not cols or not rows:
        return None
    return (min(cols), min(rows), max(cols), max(rows))


@pytest.mark.parametrize("seed", range(4))
def test_search_window_equals_brute_force_box(seed, rng_rounds):
    rng = random.Random(seed)
    for _ in range(max(1, rng_rounds // 4)):
        size = rng.choice((40, 64, 100))
        xlo, ylo = rng.randrange(0, 9), rng.randrange(0, 9)
        tech = make_default_tech(num_layers=3, color_spacing=8)
        design = Design(name="w", tech=tech, die_area=Rect(xlo, ylo, xlo + size, ylo + size))
        grid = RoutingGrid(design)
        guides = _random_guides(rng, design)
        tables = GuideTables(grid, guides)
        for index in range(7):  # n6 has no guide
            name = f"n{index}"
            expected = _brute_force_window(grid, guides, name)
            assert tables.search_window(name) == expected, (size, xlo, ylo, name)
            assert tables.search_window(name) is tables.search_window(name)  # cached
    assert GuideTables(grid, None).search_window("n1") is None


def _route(router_class, design, guides, patch):
    """Route *design*; return its digest and the search expansions spent."""
    spent = []
    run = SearchCore.run

    def counted(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        spent.append(result.expansions)
        return result

    patch.setattr(SearchCore, "run", counted)
    solution = router_class(design, guides=guides).run()
    return (solution_fingerprint(solution), solution_metrics(solution)), sum(spent)


@pytest.mark.parametrize("router_class", ROUTERS, ids=lambda cls: cls.__name__)
def test_routers_route_identically_without_windows(router_class, rng_rounds, monkeypatch):
    saved = 0
    for seed in range(max(1, rng_rounds // 8)):
        guides = guides_of(guided_design(100 + seed))
        with monkeypatch.context() as patch:
            with_windows, windowed_work = _route(router_class, guided_design(100 + seed), guides, patch)
        with monkeypatch.context() as patch:
            patch.setattr(GuideTables, "search_window", lambda self, net_name: None)
            without, full_work = _route(router_class, guided_design(100 + seed), guides, patch)
        assert with_windows == without, seed
        saved += full_work - windowed_work
    assert saved > 0  # the windows pruned
