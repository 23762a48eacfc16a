"""Differential fuzz of the tiered incremental-check fast path.

The incremental checkers' neighborhood scan runs on two tiers (the native
``_checkwork`` kernel and the pure dict/set loops -- see
:mod:`repro.check.kernels`).  These tests force each tier on the same
randomized mutation streams as ``tests/test_incremental_check.py`` and
require every tier's report to equal the frozen full-scan oracles exactly,
plus:

* gate/fallback behaviour (``set_check_native_enabled``,
  ``REPRO_PURE_PYTHON``, ``scan_hits`` returning ``None`` on the Python
  tier),
* owner-mirror consistency across snapshot restore and journal replay,
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
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_incremental_check import (
    MutationDriver,
    assert_matches_oracle,
    conflict_digest,
    drc_digest,
)

from repro import accel
from repro.bench import SyntheticSpec, generate_design
from repro.campaign import CampaignState
from repro.check import IncrementalConflictChecker, IncrementalDRCChecker
from repro.check.kernels import scan_hits, zero_owner_mirror
from repro.dr import DRCChecker
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.io.checkpoint_io import load_checkpoint_document
from repro.journal import replay_ops
from repro.profiling import PHASE_NAMES, PhaseTimes
from repro.sched.executor import ExecutorStats
from repro.tpl import ConflictChecker, MrTPLRouter
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
        tier: (
            IncrementalDRCChecker(driver.design, driver.grid),
            IncrementalConflictChecker(driver.design, driver.grid),
        )
        for tier in tiers
    }
    rng = SeededRNG(seed * 6151)
    history = []
    for round_number in range(rng_rounds):
        history.append(driver.mutate(rng))
        if len(history) > 8:
            history.pop(0)
        oracle_drc = drc_digest(driver.full_drc.check(driver.solution))
        oracle_conflicts = conflict_digest(driver.full_conflicts.check(driver.solution))
        for tier in tiers:
            inc_drc, inc_conflicts = checkers[tier]
            with forced_tier(tier):
                tier_drc = drc_digest(inc_drc.check(driver.solution))
                tier_conflicts = conflict_digest(inc_conflicts.check(driver.solution))
            if tier_drc != oracle_drc or tier_conflicts != oracle_conflicts:
                raise AssertionError(
                    f"tier {tier!r} diverged from the oracle at round "
                    f"{round_number} (seed {seed}); recent mutations: {history}"
                )


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


def brute_force_hits(grid, indices, offsets, owner, self_id):
    hits = []
    rows, cols, plane = grid.num_rows, grid.num_cols, grid.plane_size
    for index in indices:
        col, row = divmod(index % plane, rows)
        for dcol, drow, delta in offsets.offsets:
            if not (0 <= col + dcol < cols and 0 <= row + drow < rows):
                continue
            occupant = owner[index + delta]
            if occupant == 0 or occupant == self_id:
                continue
            hits.append((index, index + delta))
    return hits


def test_scan_hits_returns_none_on_python_tier():
    grid = make_scan_grid()
    offsets = grid.interaction_offset_arrays(grid.rules.min_spacing, include_center=False)
    owner = zero_owner_mirror(grid.num_vertices)
    from array import array

    indices = array("q", [grid.index_of(v) for v in [grid.vertex_of(5)]])
    with forced_tier("python"):
        assert scan_hits(indices, offsets, owner, 1, grid.num_cols, grid.num_rows) is None


@pytest.mark.skipif(not accel.check_native_available(), reason="needs the check kernel")
def test_scan_hits_matches_brute_force_on_all_tiers():
    from array import array

    grid = make_scan_grid()
    offsets = grid.interaction_offset_arrays(4, include_center=False)
    owner = zero_owner_mirror(grid.num_vertices)
    rng = SeededRNG(41)
    # Scatter foreign metal (ids 2, 3) and a few multi-occupant cells (-1)
    # across both layers, including the plane borders.
    for _ in range(120):
        owner[rng.randint(0, grid.num_vertices - 1)] = rng.choice([2, 3, -1])
    indices = array(
        "q", sorted({rng.randint(0, grid.num_vertices - 1) for _ in range(40)})
    )
    expected = brute_force_hits(grid, indices, offsets, owner, self_id=2)
    with forced_tier("native"):
        got = scan_hits(indices, offsets, owner, 2, grid.num_cols, grid.num_rows)
        assert list(got) == expected
        assert scan_hits(array("q"), offsets, owner, 2, grid.num_cols, grid.num_rows) == []


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
# Canonical offset caches (the former per-checker recomputation)
# ----------------------------------------------------------------------

def test_interaction_offset_arrays_cached_and_consistent():
    grid = make_scan_grid()
    arrays = grid.interaction_offset_arrays(5)
    assert grid.interaction_offset_arrays(5) is arrays
    assert tuple(arrays.offsets) == grid.interaction_offsets(5)
    assert len(arrays.dcols) == len(arrays.drows) == len(arrays.deltas) == len(arrays)
    for (dcol, drow, delta), flat in zip(arrays.offsets, arrays.deltas):
        assert flat == delta == dcol * grid.num_rows + drow
    trimmed = grid.interaction_offset_arrays(5, include_center=False)
    assert (0, 0, 0) in arrays.offsets
    assert (0, 0, 0) not in trimmed.offsets
    assert len(trimmed) == len(arrays) - 1


def test_layer_interaction_offsets_cached_per_layer():
    grid = make_scan_grid()
    for layer in range(grid.num_layers):
        offsets = grid.layer_interaction_offsets(layer)
        assert grid.layer_interaction_offsets(layer) is offsets
        radius = grid.interaction_radius(layer=layer)
        assert offsets == grid.interaction_offsets(radius)
        assert grid.layer_interaction_offset_arrays(layer) is (
            grid.interaction_offset_arrays(radius)
        )


# ----------------------------------------------------------------------
# id()-reuse regression: replacement must be detected by revision
# ----------------------------------------------------------------------

def test_route_revisions_are_unique_and_restamped_on_unpickle():
    a = NetRoute(net_name="n1")
    b = NetRoute(net_name="n1")
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
        set(old.vertices), set(old.edges), dict(old.vertex_colors), old.routed
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
        vertices=set(payload[0]),
        edges=set(payload[1]),
        vertex_colors=dict(payload[2]),
        routed=payload[3],
    )

    # Same address, different content: flip one mask color without touching
    # the grid, so only the route object itself reveals the replacement.
    vertex = sorted(replacement.vertex_colors)[0]
    replacement.vertex_colors[vertex] = (replacement.vertex_colors[vertex] + 1) % 3
    driver.solution.routes[name] = replacement

    dirty = driver.inc_drc.refresh(driver.solution)
    assert name in dirty, "revision stamp failed to mark the reused route dirty"
    assert_matches_oracle(driver)


# ----------------------------------------------------------------------
# Owner-mirror consistency across snapshot restore and journal replay
# ----------------------------------------------------------------------

def test_mirror_consistent_after_snapshot_restore():
    driver = MutationDriver(seed=23)
    rng = SeededRNG(71)
    for _ in range(10):
        driver.mutate(rng)
    assert_matches_oracle(driver)
    snapshot = driver.grid.snapshot_state()
    saved_solution = pickle.dumps(driver.solution)
    for _ in range(10):
        driver.mutate(rng)
    assert_matches_oracle(driver)

    driver.grid.restore_state(snapshot)
    driver.solution = pickle.loads(saved_solution)
    assert driver.inc_drc.tracker.needs_rebuild
    assert driver.inc_conflicts.tracker.needs_rebuild
    assert_matches_oracle(driver)
    # The rebuilt mirrors must keep tracking incrementally afterwards.
    for _ in range(6):
        driver.mutate(rng)
        assert_matches_oracle(driver)


def test_mirror_consistent_after_journal_replay():
    driver = MutationDriver(seed=31)
    journal = driver.grid.attach_journal()
    rng = SeededRNG(17)

    replica = RoutingGrid(driver.design)
    inc_drc = IncrementalDRCChecker(driver.design, replica)
    inc_conflicts = IncrementalConflictChecker(driver.design, replica)
    empty = RoutingSolution(design_name=driver.design.name, router_name="harness")
    inc_drc.check(empty)
    inc_conflicts.check(empty)

    for _ in range(12):
        driver.mutate(rng)
    assert_matches_oracle(driver)

    # Replay the journal onto the replica: the mirrors must be maintained
    # purely from the replayed ops' delta hooks (no rebuild flag raised).
    replay_ops(replica, journal.ops)
    assert drc_digest(inc_drc.check(driver.solution)) == drc_digest(
        DRCChecker(driver.design, replica).check(driver.solution)
    )
    assert conflict_digest(inc_conflicts.check(driver.solution)) == conflict_digest(
        ConflictChecker(driver.design, replica).check(driver.solution)
    )


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
