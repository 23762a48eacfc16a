"""Differential fuzz of the tiered incremental-check fast path.

The incremental conflict checker's neighborhood scan runs on two tiers
(the native ``_checkwork`` kernel and its Python loop -- see
:mod:`repro.check.kernels`).  These tests force each tier on the same
randomized mutation streams as ``tests/test_incremental_check.py`` and
require every tier's conflicts, and the incremental shorted nets, to
equal the full-scan oracles, plus:

* gate/fallback behaviour (``set_check_native_enabled``,
  ``REPRO_PURE_PYTHON``) and ``scan_hits`` against a brute-force loop on
  both tiers,
* owner- and mask-mirror consistency across snapshot restore, against
  mirrors rebuilt from scratch after every refresh,
* the ``id()``-reuse regression (route replacement must be detected by
  revision, not address),
* the campaign phase profiler (``phase_seconds`` on ``ExecutorStats``,
  campaign merging, per-router accumulation).

Run longer campaigns with ``--rng-rounds=200`` (the CI nightly job does).
"""

import os
import pickle
import subprocess
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_incremental_check import (
    MutationDriver,
    assert_matches_oracle,
    conflict_digest,
    refreshed_shorted_nets,
    shorted_nets,
)

from repro import accel
from repro.bench import SyntheticSpec, generate_design
from repro.campaign import CampaignState
from repro.check import IncrementalConflictChecker
from repro.check.kernels import (
    offset_buffers,
    scan_hits,
    zero_mask_mirror,
    zero_owner_mirror,
)
from repro.geometry import GridPoint
from repro.grid import NetRoute, RoutingGrid
from repro.io.checkpoint_io import load_checkpoint_document
from repro.profiling import PHASE_NAMES, PhaseTimes
from repro.sched.executor import ExecutorStats
from repro.tpl import MrTPLRouter
from repro.utils import SeededRNG


# ----------------------------------------------------------------------
# Tier forcing
# ----------------------------------------------------------------------

@contextmanager
def forced_tier(tier):
    """Force one incremental-check tier for the duration of the block."""
    previous_native = accel.set_check_native_enabled(tier == "native")
    try:
        yield
    finally:
        accel.set_check_native_enabled(previous_native)


def available_tiers():
    if accel.check_native_available():
        return ["python", "native"]
    return ["python"]


# ----------------------------------------------------------------------
# Differential fuzz: every tier vs the full-scan oracle, every mutation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [7, 29])
def test_fuzz_all_tiers_match_oracle(seed, rng_rounds):
    driver = MutationDriver(seed)
    tiers = available_tiers()
    checkers = {
        tier: IncrementalConflictChecker(driver.design, driver.grid) for tier in tiers
    }
    rng = SeededRNG(seed * 6151)
    history = []
    for round_number in range(rng_rounds):
        history.append(driver.mutate(rng))
        if len(history) > 8:
            history.pop(0)
        context = f"round {round_number} (seed {seed}); recent mutations: {history}"
        assert refreshed_shorted_nets(driver.inc_drc, driver.solution) == shorted_nets(
            driver.full_drc, driver.solution
        ), f"shorts diverged from the oracle at {context}"
        oracle_conflicts = conflict_digest(driver.full_conflicts.check(driver.solution))
        for tier in tiers:
            with forced_tier(tier):
                tier_conflicts = conflict_digest(checkers[tier].check(driver.solution))
            if tier_conflicts != oracle_conflicts:
                raise AssertionError(f"tier {tier!r} diverged from the oracle at {context}")


def test_full_router_solutions_identical_across_tiers():
    """Whole MrTPL campaigns must be bit-identical under every tier."""
    fingerprints = {}
    for tier in available_tiers():
        spec = SyntheticSpec(
            name="tier-flow", seed=19, cols=14, rows=14, num_layers=3, num_nets=6,
            color_spacing=10, net_radius=8, obstacle_count=2,
            colored_obstacle_fraction=0.5,
        )
        design = generate_design(spec)
        grid = RoutingGrid(design)
        with forced_tier(tier):
            solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
        fingerprints[tier] = {
            name: (
                sorted(route.vertices),
                sorted(route.edges),
                sorted(route.vertex_colors.items()),
                route.routed,
            )
            for name, route in solution.routes.items()
        }
    reference = fingerprints["python"]
    for tier, fingerprint in fingerprints.items():
        assert fingerprint == reference, f"tier {tier!r} changed the campaign result"


# ----------------------------------------------------------------------
# scan_hits contract
# ----------------------------------------------------------------------

def make_scan_grid():
    spec = SyntheticSpec(name="scan", seed=3, cols=12, rows=12, num_layers=2,
                         num_nets=2, obstacle_count=0)
    return RoutingGrid(generate_design(spec))


def brute_force_hits(grid, indices, masks, offsets, owner, owner_masks, self_id, reaches):
    """The candidate rule, spelled out over grid points."""
    spacing_reach, color_reach = reaches
    hits = []
    for index, mask in zip(indices, masks):
        vertex = grid.vertex_of(index)
        for dcol, drow, _delta in offsets:
            neighbor = GridPoint(vertex.layer, vertex.col + dcol, vertex.row + drow)
            if not grid.in_bounds(neighbor):
                continue
            flat = grid.index_of(neighbor)
            occupant = owner[flat]
            if occupant in (0, self_id):
                continue
            tracks = max(abs(dcol), abs(drow))
            several = occupant == -1
            near = tracks <= spacing_reach
            same_mask_near = tracks <= color_reach and owner_masks[flat] == mask
            if several or near or same_mask_near:
                hits.append((index, flat))
    return hits


def scattered_mirrors(grid, rng):
    """Return owner and mask mirrors with foreign metal scattered over both layers.

    Ids 2 and 3 own single cells on random masks, and a few cells have
    several owners (-1); the die corners and edges are covered too.
    """
    owner = zero_owner_mirror(grid.num_vertices)
    owner_masks = zero_mask_mirror(grid.num_vertices)
    for _ in range(160):
        flat = rng.randint(0, grid.num_vertices - 1)
        owner[flat] = rng.choice([2, 3, 3, -1])
        owner_masks[flat] = rng.randint(0, 2) if owner[flat] > 0 else 0
    return owner, owner_masks


def edge_indices(grid):
    """Return the flat indices of every die corner and edge midpoint, per layer."""
    last_col, last_row = grid.num_cols - 1, grid.num_rows - 1
    return [
        grid.index_of(GridPoint(layer, col, row))
        for layer in range(grid.num_layers)
        for col, row in ((0, 0), (0, last_row), (last_col, 0), (last_col, last_row),
                         (last_col // 2, 0), (0, last_row // 2))
    ]


def test_scan_hits_matches_brute_force_on_all_tiers():
    grid = make_scan_grid()
    # A 9x9 track window (a reach of four tracks), its centre included:
    # offsets lie inside and beyond each of the two reaches below.
    offsets = grid.track_offsets(5 * grid.pitch)
    buffers = offset_buffers(offsets)
    rng = SeededRNG(41)
    owner, owner_masks = scattered_mirrors(grid, rng)
    flats = sorted({rng.randint(0, grid.num_vertices - 1) for _ in range(40)})
    indices = array("q", sorted(set(flats) | set(edge_indices(grid))))
    masks = array("b", [rng.randint(0, 2) for _ in indices])
    position = {index: i for i, index in enumerate(indices)}

    def tracks(src, dst):
        return max(abs(a - b) for a, b in zip(grid.vertex_of(src), grid.vertex_of(dst)))

    unfiltered = brute_force_hits(grid, indices, masks, offsets, owner, owner_masks, 2, (4, 4))
    for reaches in ((1, 3), (3, 1), (-1, 2), (0, 0)):
        spacing_reach, color_reach = reaches
        assert max(tracks(src, dst) for src, dst in unfiltered) > max(reaches)
        expected = brute_force_hits(
            grid, indices, masks, offsets, owner, owner_masks, 2, reaches
        )
        # The rule keeps cells with several owners at every offset, and
        # drops single owners beyond both reaches, or on another mask
        # beyond the min-spacing reach.
        beyond = [hit for hit in unfiltered if tracks(*hit) > max(reaches)]
        assert any(owner[dst] == -1 for _src, dst in beyond)
        assert all(owner[dst] == -1 for src, dst in beyond if (src, dst) in expected)
        assert len(expected) < len(unfiltered)
        if color_reach > spacing_reach:
            same_mask = [
                (src, dst) for src, dst in expected
                if owner[dst] > 0 and tracks(src, dst) > spacing_reach
            ]
            assert same_mask
            assert all(owner_masks[dst] == masks[position[src]] for src, dst in same_mask)
        for tier in available_tiers():
            with forced_tier(tier):
                got = scan_hits(indices, masks, buffers, owner, owner_masks, 2, reaches,
                                grid.num_cols, grid.num_rows)
                assert list(got) == expected, (tier, reaches)
                empty = scan_hits(array("q"), array("b"), buffers, owner, owner_masks, 2,
                                  reaches, grid.num_cols, grid.num_rows)
                assert list(empty) == [], (tier, reaches)


@pytest.mark.parametrize(
    "fault", ["short masks", "long masks", "short mirror", "wide masks", "wide owners"]
)
def test_scan_hits_rejects_bad_mask_buffers(fault):
    """A mask or owner buffer that does not fit raises ValueError before any
    hit is written (the Python tier reads any integer array, so only the
    native kernel checks item sizes)."""
    grid = make_scan_grid()
    offsets = offset_buffers(grid.track_offsets(3 * grid.pitch))
    owner, owner_masks = scattered_mirrors(grid, SeededRNG(5))
    indices = array("q", range(0, grid.num_vertices, 7))
    masks = array("b", bytes(len(indices)))
    if fault == "short masks":
        masks = masks[:-1]
    elif fault == "long masks":
        masks.append(0)
    elif fault == "short mirror":
        owner_masks = owner_masks[:-1]
    elif fault == "wide masks":
        masks = array("q", masks)
    else:
        owner = array("q", owner)
    args = (indices, masks, offsets, owner, owner_masks, 2, (1, 2),
            grid.num_cols, grid.num_rows)
    if not fault.startswith("wide"):
        with forced_tier("python"), pytest.raises(ValueError):
            scan_hits(*args)
    kernel = accel.get_check_kernel() if accel.check_native_available() else None
    if kernel is None:
        return
    capacity = len(indices) * len(offsets[2])
    out_src = array("q", [-7]) * capacity
    out_dst = array("q", [-7]) * capacity
    with pytest.raises(ValueError):
        kernel.scan_hits(indices, masks, *offsets, owner, owner_masks,
                         grid.num_cols, grid.num_rows, 2, 1, 2, out_src, out_dst)
    assert set(out_src) == {-7} and set(out_dst) == {-7}


# ----------------------------------------------------------------------
# The shared track-offset table and its scan-kernel buffers
# ----------------------------------------------------------------------

def test_interaction_offset_arrays_cached_and_consistent():
    grid = make_scan_grid()
    offsets = grid.track_offsets(5)
    assert grid.track_offsets(5) is offsets
    assert (0, 0, 0) in offsets
    for dcol, drow, delta in offsets:
        assert delta == dcol * grid.num_rows + drow
    buffers = offset_buffers(offsets)
    assert [len(column) for column in buffers] == [len(offsets)] * 3
    # The native scan kernel reads the same table column by column.
    assert list(zip(*buffers)) == list(offsets)
    assert grid.track_offsets(0) == ()


def test_layer_interaction_offsets_cached_per_layer():
    grid = make_scan_grid()
    for layer in range(grid.num_layers):
        radius = grid.interaction_radius(layer=layer)
        offsets = grid.track_offsets(radius)
        assert offsets
        assert grid.track_offsets(radius) is offsets


# ----------------------------------------------------------------------
# Gates and env knobs
# ----------------------------------------------------------------------

def test_check_native_gate_toggles():
    previous = accel.set_check_native_enabled(False)
    try:
        assert accel.get_check_kernel() is None
        assert accel.active_check_tier() != "native"
        # Setter returns the previous value so callers can restore exactly.
        assert accel.set_check_native_enabled(previous) is False
    finally:
        accel.set_check_native_enabled(previous)


@pytest.mark.parametrize(
    "env_name, forbidden",
    [("REPRO_NO_NATIVE_CHECK", ()),
     ("REPRO_PURE_PYTHON", ("native",))],
)
def test_check_env_gates(env_name, forbidden):
    """``REPRO_PURE_PYTHON=1`` closes both native kernels at import time;
    the retired ``REPRO_NO_NATIVE_CHECK`` closes nothing."""
    env = dict(os.environ)
    env.pop("REPRO_PURE_PYTHON", None)
    env[env_name] = "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    tiers = subprocess.run(
        [sys.executable, "-c",
         "from repro.accel import active_check_tier, active_search_tier\n"
         "print(active_search_tier(), active_check_tier())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert len(tiers) == 2 and all(tier in accel.TIERS for tier in tiers)
    assert not set(tiers) & set(forbidden)
    if not forbidden and accel.native_available() and accel.check_native_available():
        assert tiers == ["native", "native"]


# ----------------------------------------------------------------------
# id()-reuse regression: replacement must be detected by revision
# ----------------------------------------------------------------------

def test_route_revisions_are_unique_and_restamped_on_unpickle():
    a = NetRoute("n1", (8, 8))
    b = NetRoute("n1", (8, 8))
    assert a.revision != b.revision
    clone = pickle.loads(pickle.dumps(a))
    assert clone.revision != a.revision  # cross-process routes read as replaced


def test_id_reuse_does_not_mask_route_replacement():
    driver = MutationDriver(seed=13, num_nets=4)
    rng = SeededRNG(5)
    for _ in range(8):
        driver.mutate(rng)
    recolorable = [
        name for name, route in sorted(driver.solution.routes.items())
        if route.vertex_colors
    ]
    if not recolorable:
        pytest.skip("mutation stream produced no colored routes")
    name = recolorable[0]
    assert_matches_oracle(driver)

    old = driver.solution.routes.pop(name)
    old_id = id(old)
    payload = (
        set(old.nodes), set(old.node_edges), dict(old.node_colors), old.routed, old.dims
    )
    del old
    # Hunt for the collected route's address: allocate bare objects of the
    # same size class (no interior containers yet) and keep misses alive so
    # each try lands somewhere new until the freed slot comes back.
    replacement = None
    kept = []
    for _ in range(10000):
        candidate = NetRoute.__new__(NetRoute)
        if id(candidate) == old_id:
            replacement = candidate
            break
        kept.append(candidate)
    if replacement is None:
        pytest.skip("allocator did not reuse the route's address")
    replacement.__init__(
        net_name=name,
        dims=payload[4],
        nodes=set(payload[0]),
        node_edges=set(payload[1]),
        node_colors=dict(payload[2]),
        routed=payload[3],
    )

    # Same address, different content: flip one mask color without touching
    # the grid, so only the route object itself reveals the replacement.
    node = sorted(replacement.node_colors)[0]
    replacement.node_colors[node] = (replacement.node_colors[node] + 1) % 3
    driver.solution.routes[name] = replacement

    dirty = driver.inc_drc.refresh(driver.solution)
    assert name in dirty, "revision stamp failed to mark the reused route dirty"
    assert_matches_oracle(driver)


# ----------------------------------------------------------------------
# Owner- and mask-mirror consistency across snapshot restore
# ----------------------------------------------------------------------

def assert_mirrors_rebuilt(driver):
    """Assert the checker's owner and mask mirrors and its several-owner dict
    equal those of a checker built from scratch on the same solution; return
    how many vertices have several owners."""
    checker = driver.inc_conflicts
    fresh = IncrementalConflictChecker(driver.design, driver.grid)
    fresh.refresh(driver.solution)

    def owners(mirror, id_names):
        return [id_names[owner] if owner > 0 else owner for owner in mirror]

    assert owners(checker._occ_owner, checker._id_names) == owners(
        fresh._occ_owner, fresh._id_names
    )
    assert checker._occ_mask == fresh._occ_mask
    assert checker._occ == fresh._occ
    assert all(len(occupants) > 1 for occupants in checker._occ.values())
    return len(checker._occ)


def test_mirror_consistent_after_snapshot_restore():
    driver = MutationDriver(seed=23)
    rng = SeededRNG(71)
    shared = 0
    for _ in range(10):
        driver.mutate(rng)
        assert_matches_oracle(driver)
        shared += assert_mirrors_rebuilt(driver)
    snapshot = driver.grid.snapshot_state()
    saved_solution = pickle.dumps(driver.solution)
    for _ in range(10):
        driver.mutate(rng)
        assert_matches_oracle(driver)
        shared += assert_mirrors_rebuilt(driver)

    driver.grid.restore_state(snapshot)
    driver.solution = pickle.loads(saved_solution)
    assert_matches_oracle(driver)
    shared += assert_mirrors_rebuilt(driver)
    # The rebuilt mirrors must keep tracking incrementally afterwards.
    for _ in range(6):
        driver.mutate(rng)
        assert_matches_oracle(driver)
        shared += assert_mirrors_rebuilt(driver)
    # The stream shorted some vertices, so the several-owner dict was used.
    assert shared > 0


# ----------------------------------------------------------------------
# Campaign phase profiler
# ----------------------------------------------------------------------

def test_executor_stats_carry_phase_seconds():
    stats = ExecutorStats()
    record = stats.as_dict()["phase_seconds"]
    assert record == {name: 0.0 for name in PHASE_NAMES}
    stats.phases.add("search", 1.5)
    stats.phases.add("check", 0.25)
    record = stats.as_dict()["phase_seconds"]
    assert record["search"] == 1.5 and record["check"] == 0.25


def test_campaign_merges_phase_seconds_across_resumes():
    campaign = CampaignState()
    campaign.executor_stats = {"batches": 3, "phase_seconds": {"search": 2.0}}
    executor = SimpleNamespace(stats=ExecutorStats())
    executor.stats.phases.add("search", 1.5)
    campaign.update_executor_stats(executor)
    assert campaign.executor_stats["phase_seconds"]["search"] == 3.5
    # Idempotent per executor state: a second fold never double-counts.
    campaign.update_executor_stats(executor)
    assert campaign.executor_stats["phase_seconds"]["search"] == 3.5
    executor.stats.phases.add("commit", 0.5)
    campaign.update_executor_stats(executor)
    assert campaign.executor_stats["phase_seconds"]["commit"] == 0.5
    assert campaign.executor_stats["phase_seconds"]["search"] == 3.5


def test_phase_times_unit_behaviour():
    times = PhaseTimes({"search": 1.0, "bogus": 9.0})
    assert "bogus" not in times.as_dict()
    times.add("check", 0.5)
    assert times.total() == 1.5
    times.merge({"check": 0.5, "bogus": 9.0})
    assert times.as_dict()["check"] == 1.0
    # add() charges only its own record.
    other = PhaseTimes()
    other.add("check", 2.0)
    assert times.as_dict()["check"] == 1.0
    assert other.as_dict() == {
        "plan": 0.0, "search": 0.0, "commit": 0.0, "check": 2.0,
        "ipc": 0.0, "checkpoint": 0.0,
    }


def test_router_run_accumulates_check_phase():
    spec = SyntheticSpec(
        name="phase-flow", seed=11, cols=12, rows=12, num_layers=3, num_nets=5,
        color_spacing=10, net_radius=8, obstacle_count=1,
    )
    design = generate_design(spec)
    router = MrTPLRouter(design, use_global_router=False)
    router.run()
    assert router.phases.as_dict()["check"] > 0.0


def test_checkpointed_campaign_accounts_checkpoint_phase(tmp_path):
    from repro.eval.experiments import route_with_checkpoint

    spec = SyntheticSpec(
        name="phase-ckpt", seed=9, cols=12, rows=12, num_layers=3, num_nets=4,
        color_spacing=10, net_radius=8, obstacle_count=1,
    )
    design = generate_design(spec)
    path = tmp_path / "campaign.ckpt"
    # A batch executor (parallelism 2) makes the campaign persist its
    # executor stats, phase record included, in every checkpoint.
    route_with_checkpoint(
        design, MrTPLRouter, path,
        use_global_router=False, max_iterations=1, parallelism=2,
    )
    phases = load_checkpoint_document(path)["campaign"]["executor_stats"]["phase_seconds"]
    assert phases["checkpoint"] > 0.0
    assert phases["check"] > 0.0
