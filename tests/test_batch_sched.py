"""Differential and unit tests for the disjoint-batch scheduler/executor.

The heart of the suite is the differential harness: for every router and
every executor backend the batched rip-up loop must produce solutions
bit-identical to the plain sequential loop -- including the speculative
pool backend, whose explored-region validation plus sequential fallback is
what the guarantee rests on.  A host without ``fork`` must settle on the
serial floor with the same result, and so must a pool batch that fails in
any way (worker crash, hang past the deadline, error reply).  A pool
lives for one routing pass: no worker survives a pass, and a worker that
sat out a batch catches up with every route log it missed.
"""

import hashlib
import json
import multiprocessing
import os
import sys
import time

import pytest

from repro.baselines.dac2012 import Dac2012Router
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.bench.suites import sparse_suite, suite_case
from repro.design import Net, Pin
from repro.dr.router import DetailedRouter
from repro.geometry import Rect
from repro.gr.guide import GuideTables
from repro.grid import RoutingGrid, RoutingSolution
from repro.grid import routing_grid as routing_grid_module
from repro.sched import (
    BatchScheduler,
    GridSink,
    RecordingSink,
    apply_route_ops,
    windows_overlap,
)
from repro.sched import executor as executor_module
from repro.sched.executor import ExecutorStats, SpeculativeRoute, WorkerPool
from repro.tpl.mr_tpl import MrTPLRouter

ROUTERS = {
    "maze": DetailedRouter,
    "color-state": MrTPLRouter,
    "dac2012": Dac2012Router,
}

HAVE_FORK = sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["serial"] + (["pool"] if HAVE_FORK else [])

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")


def build_case(suite="ispd18", number=2, scale=0.5):
    return suite_case(suite, number, scale).build()


def run_router(router_key, design, **kwargs):
    solution = ROUTERS[router_key](design, **kwargs).run()
    return (solution_fingerprint(solution), solution_metrics(solution))


# ----------------------------------------------------------------------
# Net bounding-box memoisation (scheduler hot query)
# ----------------------------------------------------------------------

def _pin(name, layer, x, y):
    pin = Pin(name=name)
    pin.add_shape(layer, Rect(x, y, x + 2, y + 2))
    return pin


def test_net_bounding_box_is_memoised_and_invalidated_by_add_pin():
    net = Net(name="n")
    net.add_pin(_pin("a", 0, 0, 0))
    net.add_pin(_pin("b", 0, 10, 4))
    first = net.bounding_box()
    assert first == Rect(0, 0, 12, 6)
    # Memoised: the same object comes back without rebuilding.
    assert net.bounding_box() is first
    assert net.half_perimeter_wirelength() == 12 + 6
    # add_pin invalidates.
    net.add_pin(_pin("c", 0, 20, 20))
    widened = net.bounding_box()
    assert widened == Rect(0, 0, 22, 22)
    assert widened is not first
    assert net.half_perimeter_wirelength() == 22 + 22


def test_net_bounding_box_without_pins_raises():
    with pytest.raises(ValueError):
        Net(name="empty").bounding_box()


# ----------------------------------------------------------------------
# Canonical interaction radius on the grid
# ----------------------------------------------------------------------

def test_interaction_radius_per_layer_and_global():
    design = build_case("ispd19", 1, 0.5)
    grid = RoutingGrid(design)
    rules = grid.rules
    for layer in range(grid.num_layers):
        assert grid.interaction_radius(layer=layer) == max(
            rules.color_spacing_on(layer), rules.min_spacing
        )
    assert grid.interaction_radius() == max(
        grid.interaction_radius(layer=layer) for layer in range(grid.num_layers)
    )
    # A per-layer override must show through the per-layer radius.
    rules.color_spacing_per_layer[0] = rules.color_spacing + 4
    try:
        assert grid.interaction_radius(layer=0) == rules.color_spacing + 4
        assert grid.interaction_radius() >= rules.color_spacing + 4
    finally:
        del rules.color_spacing_per_layer[0]


def test_interaction_reach_cells_bounds_offsets():
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    # The scheduler expands net windows by interaction_reach_cells; it is
    # sound when that reach covers every track offset that interacts,
    # i.e. never falls below the exact track_reach.
    for radius in range(-2, 40):
        reach = grid.interaction_reach_cells(radius)
        assert reach >= 1 and reach >= grid.track_reach(radius)
        assert all(
            abs(dcol) <= reach and abs(drow) <= reach
            for dcol, drow, _delta in grid.track_offsets(radius)
        )
    radius = grid.interaction_radius()
    reach = grid.interaction_reach_cells(radius)
    # One cell further can never interact.
    half = max(grid.rules.wire_width // 2, 0)
    assert (reach + 1) * grid.pitch - 2 * half >= radius


# ----------------------------------------------------------------------
# Scheduler unit tests
# ----------------------------------------------------------------------

def scheduled_router_nets(design):
    return DetailedRouter(design).schedule_nets()


def test_prefix_plan_preserves_order_and_covers_every_net():
    design = build_case("ispd18", 3, 0.7)
    grid = RoutingGrid(design)
    nets = scheduled_router_nets(design)
    plan = BatchScheduler(grid).plan(nets)
    flattened = [net for batch in plan for net in batch]
    assert flattened == nets  # concatenation IS the sequential order


def test_batches_are_pairwise_disjoint_after_radius_expansion():
    design = build_case("ispd18", 3, 0.7)
    grid = RoutingGrid(design)
    nets = scheduled_router_nets(design)
    scheduler = BatchScheduler(grid)
    plan = scheduler.plan(nets)
    assert sorted(net.name for batch in plan for net in batch) == sorted(
        net.name for net in nets
    )
    reach = grid.interaction_reach_cells(grid.interaction_radius())
    for batch in plan:
        # Radius-expanded windows (the soundness region: bbox + reach) must
        # be pairwise disjoint within a batch.
        windows = [scheduler.net_window(net, expand_cells=reach) for net in batch]
        for i in range(len(windows)):
            for j in range(i + 1, len(windows)):
                assert not windows_overlap(windows[i], windows[j]), (
                    batch[i].name,
                    batch[j].name,
                )


def test_scheduler_respects_max_batch():
    design = build_case("ispd18", 3, 0.7)
    grid = RoutingGrid(design)
    nets = scheduled_router_nets(design)
    plan = BatchScheduler(grid, max_batch=2).plan(nets)
    assert max(len(batch) for batch in plan) <= 2


# ----------------------------------------------------------------------
# Commit-log replay equivalence
# ----------------------------------------------------------------------

def grid_state_digest(grid):
    return (
        bytes(grid.owner_buffer().tobytes()),
        bytes(grid._color_buf),
        bytes(grid.pressure_buffer().tobytes()),
    )


@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_recorded_commit_log_replays_to_identical_grid_state(router_key):
    design_direct = build_case("ispd18", 1, 0.5)
    design_replay = build_case("ispd18", 1, 0.5)
    direct = ROUTERS[router_key](design_direct, use_global_router=False) \
        if router_key != "maze" else ROUTERS[router_key](design_direct)
    replay = ROUTERS[router_key](design_replay, use_global_router=False) \
        if router_key != "maze" else ROUTERS[router_key](design_replay)
    nets_direct = direct.schedule_nets()
    nets_replay = replay.schedule_nets()
    for net_d, net_r in zip(nets_direct, nets_replay):
        route_d = direct.route_net(net_d)
        sink = RecordingSink(replay.grid, net_r.name)  # interns the net
        before = replay.grid.snapshot_state()
        route_r = replay.compute_route(net_r, sink=sink)
        # Pure snapshot computation: the grid must be untouched...
        assert replay.grid.snapshot_state() == before
        # ...and replaying the log must land in the exact same state the
        # direct commit produced.
        apply_route_ops(replay.grid, sink.ops)
        assert solution_fingerprint_one(route_d) == solution_fingerprint_one(route_r)
    assert grid_state_digest(direct.grid) == grid_state_digest(replay.grid)


def solution_fingerprint_one(route):
    solution = RoutingSolution(design_name="x")
    solution.add_route(route)
    return solution_fingerprint(solution)


# ----------------------------------------------------------------------
# Differential suite: batched vs sequential (the determinism guarantee)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_prefix_matches_sequential(router_key, backend):
    sequential = run_router(router_key, build_case("ispd18", 2, 0.5))
    batched = run_router(
        router_key,
        build_case("ispd18", 2, 0.5),
        parallelism=4,
        batch_backend=backend,
    )
    assert batched == sequential


@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("backend", ["thread", "process", "auto"])
def test_unknown_batch_backend_is_rejected(router_key, backend):
    with pytest.raises(ValueError) as excinfo:
        ROUTERS[router_key](build_case("ispd18", 1, 0.5), batch_backend=backend)
    message = str(excinfo.value)
    assert repr(backend) in message
    assert "('serial', 'pool')" in message


@needs_fork
@pytest.mark.parametrize("seed_case", [("ispd18", 1), ("ispd19", 2)])
def test_batched_matches_sequential_across_seeds(seed_case):
    suite, number = seed_case
    sequential = run_router("color-state", build_case(suite, number, 0.5))
    batched = run_router(
        "color-state",
        build_case(suite, number, 0.5),
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
    )
    assert batched == sequential


def test_pool_without_fork_settles_on_serial(monkeypatch):
    """A host without the ``fork`` start method runs a pool campaign on the
    serial floor: same solution, no parallel batch, no error."""
    sequential = run_router("color-state", build_case("ispd18", 2, 0.5))
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
    )
    router = MrTPLRouter(
        build_case("ispd18", 2, 0.5),
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
    )
    solution = router.run()
    assert (solution_fingerprint(solution), solution_metrics(solution)) == sequential
    executor = router.batch_executor
    assert executor.backend == "pool"
    assert executor.active_backend == "serial"
    stats = executor.stats
    assert stats.parallel_batches == 0
    assert stats.batches > 0
    assert (stats.pool_forks, stats.worker_errors) == (0, 0)


@needs_fork
def test_forced_fallback_still_matches_sequential(monkeypatch):
    """With speculation always rejected every net falls back to live
    sequential routing -- results must still match and the counters must
    show the fallbacks."""
    from repro.sched.executor import BatchExecutor

    sequential = run_router("maze", build_case("ispd18", 2, 0.5))
    monkeypatch.setattr(
        BatchExecutor, "_speculation_valid", lambda self, spec, committed: False
    )
    design = build_case("ispd18", 2, 0.5)
    router = DetailedRouter(
        design, parallelism=4, batch_backend="pool", min_fork_batch=2
    )
    solution = router.run()
    assert (solution_fingerprint(solution), solution_metrics(solution)) == sequential
    stats = router.batch_executor.stats
    assert stats.speculative_accepted == 0
    assert stats.parallel_batches > 0
    assert stats.speculative_fallbacks > 0


@needs_fork
def test_executor_stats_account_for_every_net():
    design = build_case("ispd18", 2, 0.5)
    router = MrTPLRouter(
        design, use_global_router=False, parallelism=4, batch_backend="pool",
        min_fork_batch=2,
    )
    router.run()
    stats = router.batch_executor.stats
    assert stats.nets_routed >= len(design.routable_nets())
    assert stats.batches >= 1
    assert stats.largest_batch >= 1
    assert stats.worker_errors == 0


# ----------------------------------------------------------------------
# One failure rule: a failed pool batch closes the pool, goes serial
# ----------------------------------------------------------------------

def sparse_router(router_key, **kwargs):
    """The sparse case, whose batches reliably engage a 2-worker pool."""
    design = sparse_suite(0.4)[0].build()
    if router_key != "maze":
        kwargs.setdefault("use_global_router", False)
    return ROUTERS[router_key](design, grid=RoutingGrid(design), **kwargs)


_SPARSE_SERIAL = {}


def sparse_serial_reference(router_key):
    if router_key not in _SPARSE_SERIAL:
        _SPARSE_SERIAL[router_key] = solution_fingerprint(sparse_router(router_key).run())
    return _SPARSE_SERIAL[router_key]


# Stand-ins for ``_compute_speculative``; forked workers inherit the patch.

def _worker_crashes(router, net, engine):
    os._exit(1)


def _worker_hangs(router, net, engine):
    time.sleep(60)


def _worker_raises(router, net, engine):
    raise RuntimeError(f"compute failed on {net.name}")


POOL_FAILURES = {"crash": _worker_crashes, "hang": _worker_hangs, "error": _worker_raises}


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("failure", sorted(POOL_FAILURES))
def test_failed_pool_batch_falls_back_to_serial(failure, router_key, monkeypatch):
    reference = sparse_serial_reference(router_key)
    monkeypatch.setattr(executor_module, "_compute_speculative", POOL_FAILURES[failure])
    if failure == "hang":
        monkeypatch.setattr(executor_module, "BATCH_DEADLINE_BASE", 0.5)
        monkeypatch.setattr(executor_module, "BATCH_DEADLINE_PER_NET", 0.0)
    router = sparse_router(
        router_key, parallelism=2, batch_backend="pool", min_fork_batch=2
    )
    fingerprint = solution_fingerprint(router.run())
    executor = router.batch_executor
    assert fingerprint == reference
    assert executor.active_backend == "serial"
    assert executor.stats.worker_errors == 1
    assert executor.stats.parallel_batches == 0
    assert multiprocessing.active_children() == []


def test_grid_sink_and_recording_sink_agree():
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    node = grid.plane_size // 2
    recording = RecordingSink(grid, "netX")
    recording.occupy(node)
    recording.set_color(node, 1)
    direct = GridSink(grid, "netX")
    direct.occupy(node)
    direct.set_color(node, 1)
    # The ops carry the interned net id; an identically constructed grid
    # interns identically (the executor pre-interns batch nets the same way).
    replay_grid = RoutingGrid(build_case("ispd18", 1, 0.5))
    assert replay_grid.net_id("netX") == recording.net_id
    apply_route_ops(replay_grid, recording.ops)
    assert grid_state_digest(grid) == grid_state_digest(replay_grid)


# ----------------------------------------------------------------------
# One pool per routing pass
# ----------------------------------------------------------------------

def _no_gr(router_key):
    return {} if router_key == "maze" else {"use_global_router": False}


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("batch_size", [None, 2, 16])
def test_pool_backend_matches_serial(router_key, batch_size):
    sequential = run_router(
        router_key, build_case("ispd19", 1, 0.5), **_no_gr(router_key)
    )
    router = ROUTERS[router_key](
        build_case("ispd19", 1, 0.5),
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
        **_no_gr(router_key),
    )
    if batch_size is not None:
        # Other caps than the default 4 * parallelism: plan with a scheduler
        # of our own.
        router.batch_executor.scheduler = BatchScheduler(router.grid, max_batch=batch_size)
    pooled = router.run()
    assert (solution_fingerprint(pooled), solution_metrics(pooled)) == sequential
    assert router.batch_executor.stats.worker_errors == 0


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_multi_pass_pool_campaign_matches_serial_and_leaves_no_worker(router_key):
    """Rip-up rounds run between passes, when no worker is alive; every
    pass forks from the updated parent and ends with its workers closed."""
    reference = solution_fingerprint(sparse_router(router_key, max_iterations=2).run())
    router = sparse_router(
        router_key, max_iterations=2, parallelism=2, batch_backend="pool", min_fork_batch=2
    )
    alive_after_pass = []
    solution = router.run(
        on_iteration=lambda campaign: alive_after_pass.append(multiprocessing.active_children())
    )
    assert solution_fingerprint(solution) == reference
    assert alive_after_pass and all(alive == [] for alive in alive_after_pass)
    assert multiprocessing.active_children() == []
    stats = router.batch_executor.stats
    # A reroute pass forked its own workers after the rip-up.
    assert stats.pool_forks >= 4 and stats.worker_errors == 0


@needs_fork
def test_pool_forks_once_per_pass_and_ships_logs():
    router = MrTPLRouter(
        build_case("sparse", 1, 0.5),
        use_global_router=False,
        max_iterations=0,
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
    )
    router.run()
    stats = router.batch_executor.stats
    assert stats.parallel_batches > 0, "pool never engaged on the sparse case"
    # One pass: at most one fork per worker slot, lazily sized to the
    # batches actually seen...
    assert 0 < stats.pool_forks <= min(4, stats.largest_batch)
    # ...kept in sync by shipping the pass's route logs, not by re-forking.
    assert stats.replayed_ops > 0 and stats.suffix_bytes > 0
    merged = stats.as_dict()
    assert (merged["replayed_ops"], merged["suffix_bytes"]) == (
        stats.replayed_ops, stats.suffix_bytes,
    )


@needs_fork
def test_pool_pass_builds_lookup_tables_once_in_parent_before_forking(tmp_path, monkeypatch):
    """Workers inherit the neighbour table and guide slot map through fork:
    the parent builds each before its first fork, and no worker builds one."""
    record = tmp_path / "builds.txt"

    def note(event):
        with open(record, "a") as handle:
            handle.write(f"{event} {os.getpid()}\n")

    build_table = routing_grid_module.build_neighbor_table

    def recording_build_table(*shape):
        note("table")
        return build_table(*shape)

    slot_map = GuideTables.slot_map

    def recording_slot_map(tables):
        if tables._slot_of is None:
            note("slots")
        return slot_map(tables)

    start_worker = WorkerPool._start_worker

    def recording_start_worker(pool):
        note("fork")
        start_worker(pool)

    monkeypatch.setattr(routing_grid_module, "build_neighbor_table", recording_build_table)
    monkeypatch.setattr(GuideTables, "slot_map", recording_slot_map)
    monkeypatch.setattr(WorkerPool, "_start_worker", recording_start_worker)
    router = MrTPLRouter(
        build_case("sparse", 1, 0.5),
        use_global_router=False,
        max_iterations=0,
        parallelism=2,
        batch_backend="pool",
        min_fork_batch=2,
    )
    router.run()
    assert router.batch_executor.stats.pool_forks == 2
    events = [line.split() for line in record.read_text().splitlines()]
    assert {pid for _, pid in events} == {str(os.getpid())}
    kinds = [kind for kind, _ in events]
    assert kinds.count("table") == 1
    first_fork = kinds.index("fork")
    assert kinds.index("table") < first_fork and kinds.index("slots") < first_fork


@needs_fork
def test_pool_counters_accumulate_across_passes():
    router = sparse_router("color-state", parallelism=2, batch_backend="pool", min_fork_batch=2)
    executor = router.batch_executor
    nets = router.schedule_nets()
    assert len(nets) >= 20
    split = len(nets) // 2
    solution = RoutingSolution(design_name=router.design.name, router_name=router.name)
    executor.route_nets(nets[:split], solution)
    first_forks = executor.stats.pool_forks
    first_replayed = executor.stats.replayed_ops
    assert first_forks == 2
    # The pass closed its workers and kept the counters they wrote...
    assert multiprocessing.active_children() == []
    # ...and the next pass forks a fresh pair whose counters add on top.
    executor.route_nets(nets[split:], solution)
    assert executor.stats.pool_forks == first_forks + 2
    assert executor.stats.replayed_ops >= first_replayed
    assert multiprocessing.active_children() == []


def _grid_digest_route(router, net, engine):
    """Stand-in for ``_compute_speculative``: report the worker's grid."""
    snapshot = json.dumps(router.grid.snapshot_state(), sort_keys=True)
    return SpeculativeRoute(
        route=hashlib.sha256(snapshot.encode()).hexdigest(), ops=[], explored_box=None
    )


@needs_fork
def test_worker_that_sat_out_a_batch_catches_up(monkeypatch):
    monkeypatch.setattr(executor_module, "_compute_speculative", _grid_digest_route)
    router = MrTPLRouter(build_case("ispd18", 1, 0.5), use_global_router=False)
    grid = router.grid
    nets = router.schedule_nets()
    for net in nets:
        grid.net_id(net.name)
    names = [net.name for net in nets]
    logs = []

    def commit(net):
        sink = RecordingSink(grid, net.name)
        router.compute_route(net, sink)
        apply_route_ops(grid, sink.ops)
        logs.append(sink.ops)

    def parent_digest():
        return _grid_digest_route(router, None, None).route

    stats = ExecutorStats()
    pool = WorkerPool(router, 3, stats, logs)
    try:
        assert pool.compute(names[:3], 60.0)[0][0] == parent_digest()
        assert len(pool) == 3
        commit(nets[0])
        # The third worker sits this batch out...
        assert [route for route, _ops, _box in pool.compute(names[1:3], 60.0)] == [
            parent_digest()
        ] * 2
        commit(nets[1])
        commit(nets[2])
        # ...and receives all three logs it missed with the next one.
        replayed = stats.replayed_ops
        assert [route for route, _ops, _box in pool.compute(names[3:6], 60.0)] == [
            parent_digest()
        ] * 3
        caught_up = len(logs[1]) + len(logs[2])
        assert stats.replayed_ops - replayed == 2 * caught_up + sum(map(len, logs))
    finally:
        pool.close()
    assert multiprocessing.active_children() == []
