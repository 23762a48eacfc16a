"""Differential tests for the event-sourced grid mutation journal.

The journal's contract is replayability: a fresh grid constructed over the
same design, fed the journal through ``RoutingGrid.apply_op``, must end up
**bit-identical** to the live grid -- occupancy, color, pressure and
history buffers byte for byte, plus every sparse side table.  The suite
proves that for full seeded rip-up campaigns of all three routers, proves
the persistent ``pool`` executor backend (which rests on that guarantee)
bit-identical to the serial oracle across batch sizes, checks that the
pool's lifetime counters (forks, replayed ops, suffix-message batching)
survive pool discard and re-fork without loss or double counting, and
round-trips checkpoints through :mod:`repro.io.checkpoint_io`.
"""

import multiprocessing
import sys

import pytest

from repro.baselines.dac2012 import Dac2012Router
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.bench.suites import sparse_suite, suite_case
from repro.dr.router import DetailedRouter
from repro.grid import RoutingGrid, RoutingSolution
from repro.io.checkpoint_io import load_checkpoint, save_checkpoint
from repro.journal import replay_ops
from repro.sched import BatchScheduler
from repro.tpl.mr_tpl import MrTPLRouter

ROUTERS = {
    "maze": DetailedRouter,
    "color-state": MrTPLRouter,
    "dac2012": Dac2012Router,
}

HAVE_FORK = sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")


def build_case(suite="ispd18", number=2, scale=0.5):
    return suite_case(suite, number, scale).build()


def make_router(router_key, design, grid=None, **kwargs):
    if router_key != "maze":
        kwargs.setdefault("use_global_router", False)
    return ROUTERS[router_key](design, grid=grid, **kwargs)


def sparse_case():
    return sparse_suite(0.4)[0].build()


_SERIAL_REFS = {}


def serial_reference(router_key):
    if router_key not in _SERIAL_REFS:
        router = make_router(router_key, sparse_case())
        _SERIAL_REFS[router_key] = solution_fingerprint(router.run())
    return _SERIAL_REFS[router_key]


def full_grid_digest(grid):
    """Every mutable grid structure, dense buffers as raw bytes."""
    return (
        grid.owner_buffer().tobytes(),
        bytes(grid._color_buf),
        grid.pressure_buffer().tobytes(),
        grid.history_buffer().tobytes(),
        bytes(grid.blocked_buffer()),
        grid._net_names,
        grid._net_ids,
        grid._multi_owners,
        grid._net_occupied,
        grid._history_touched,
        grid._net_colored_vertices,
    )


def assert_grids_bit_identical(live, fresh):
    for component_index, (a, b) in enumerate(zip(full_grid_digest(live), full_grid_digest(fresh))):
        assert a == b, f"grid digest component {component_index} differs"


# ----------------------------------------------------------------------
# (a) Full-campaign replay is bit-identical
# ----------------------------------------------------------------------

@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_campaign_journal_replays_bit_identical(router_key):
    """Journal a full seeded rip-up campaign (routes, releases, history
    bumps, decays) and replay it onto a fresh grid over an identically
    built design: every buffer and side table must match byte for byte."""
    design = build_case("ispd18", 2, 0.5)
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    router = make_router(router_key, design, grid=grid)
    solution = router.run()
    # The campaign must have exercised the negotiation ops, or the test
    # proves less than it claims.
    kinds = {op[0] for op in journal}
    assert "occupy" in kinds
    if solution.iterations:
        assert {"release", "history", "decay"} <= kinds

    fresh = RoutingGrid(build_case("ispd18", 2, 0.5))
    assert replay_ops(fresh, journal.ops) == len(journal)
    assert_grids_bit_identical(grid, fresh)


def test_reset_op_is_journalled_and_replayed():
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    router = make_router("maze", design, grid=grid)
    router.run()
    grid.add_history(grid.vertex_of(0), 2.0)
    grid.reset_routing_state()
    grid.occupy(grid.vertex_of(5), "post_reset_net")
    assert "reset" in {op[0] for op in journal}

    fresh = RoutingGrid(build_case("ispd18", 1, 0.5))
    replay_ops(fresh, journal.ops)
    assert_grids_bit_identical(grid, fresh)


def test_journal_cursor_and_suffix_semantics():
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    grid.occupy(grid.vertex_of(3), "a")
    cursor = journal.cursor
    grid.occupy(grid.vertex_of(4), "b")
    grid.add_history(grid.vertex_of(4), 1.0)
    suffix = journal.suffix(cursor)
    assert len(suffix) == journal.cursor - cursor
    assert journal.suffix(journal.cursor) == []
    # A replica synced to `cursor` catches up from the suffix alone.
    replica = RoutingGrid(build_case("ispd18", 1, 0.5))
    replay_ops(replica, journal.ops[:cursor])
    replay_ops(replica, suffix)
    assert_grids_bit_identical(grid, replica)
    with pytest.raises(ValueError):
        journal.suffix(-1)


def test_apply_op_rejects_unknown_and_malformed_ops():
    grid = RoutingGrid(build_case("ispd18", 1, 0.5))
    with pytest.raises(ValueError):
        grid.apply_op(("warp", 1, 2))
    with pytest.raises(ValueError):
        grid.apply_op(("color", 1))  # wrong arity


def test_attach_journal_is_exclusive_and_detachable():
    grid = RoutingGrid(build_case("ispd18", 1, 0.5))
    journal = grid.attach_journal()
    with pytest.raises(RuntimeError):
        grid.attach_journal()
    assert grid.journal is journal
    assert grid.detach_journal() is journal
    recorded = journal.cursor
    grid.occupy(grid.vertex_of(1), "untracked")
    assert journal.cursor == recorded  # detached: mutations go unrecorded
    assert grid.attach_journal() is not journal  # a fresh one after detach


def test_journal_compaction_preserves_cursor_arithmetic():
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    grid.occupy(grid.vertex_of(3), "a")
    grid.occupy(grid.vertex_of(4), "b")
    mid = journal.cursor
    grid.add_history(grid.vertex_of(4), 1.0)
    dropped = journal.compact(mid)
    assert dropped == mid and journal.base == mid
    # Cursors stay absolute: the end cursor and post-`mid` suffixes are
    # unchanged, pre-`mid` cursors are now invalid.
    assert journal.cursor == mid + 1
    assert [op[0] for op in journal.suffix(mid)] == ["history"]
    with pytest.raises(ValueError):
        journal.suffix(0)
    assert journal.compact(0) == 0  # never un-compacts


# ----------------------------------------------------------------------
# (b) The pool backend is bit-identical to serial
# ----------------------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("batch_size", [None, 2, 16])
def test_pool_backend_matches_serial(router_key, batch_size):
    sequential = make_router(router_key, build_case("ispd19", 1, 0.5)).run()
    router = make_router(
        router_key,
        build_case("ispd19", 1, 0.5),
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
    )
    if batch_size is not None:
        # Other caps than the default 4 * parallelism: plan with a scheduler
        # of our own.
        router.batch_executor.scheduler = BatchScheduler(router.grid, max_batch=batch_size)
    pooled = router.run()
    assert (solution_fingerprint(pooled), solution_metrics(pooled)) == (
        solution_fingerprint(sequential),
        solution_metrics(sequential),
    )
    stats = router.batch_executor.stats
    assert stats.worker_errors == 0


@needs_fork
def test_pool_workers_fork_once_and_replay_suffixes():
    router = make_router(
        "color-state",
        build_case("sparse", 1, 0.5),
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
    )
    router.run()
    stats = router.batch_executor.stats
    assert stats.parallel_batches > 0, "pool never engaged on the sparse case"
    # Persistent workers: at most one fork per worker slot for the whole
    # campaign, lazily sized to the batches actually seen (the per-batch
    # fork backend would fork workers for every parallel batch anew)...
    assert 0 < stats.pool_forks <= 4
    assert stats.pool_forks <= stats.largest_batch
    # ...kept in sync by replaying journal suffixes, not by re-forking.
    assert stats.replayed_ops > 0


@needs_fork
def test_pool_executor_detaches_owned_journal_on_close():
    router = make_router(
        "maze",
        build_case("ispd18", 1, 0.5),
        parallelism=4,
        batch_backend="pool",
        min_fork_batch=2,
    )
    router.run()  # run() closes the executor at the end
    assert router.grid.journal is None


@needs_fork
def test_pool_respects_caller_attached_journal():
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    router = make_router(
        "maze", design, grid=grid, parallelism=4, batch_backend="pool", min_fork_batch=2
    )
    router.run()
    # The executor must reuse (and must not detach) the campaign journal.
    assert grid.journal is journal
    fresh = RoutingGrid(build_case("ispd18", 1, 0.5))
    replay_ops(fresh, journal.ops)
    assert_grids_bit_identical(grid, fresh)


@needs_fork
def test_pool_counters_survive_discard_and_refork():
    design = sparse_case()
    router = make_router(
        "color-state", design, parallelism=2, batch_backend="pool",
        min_fork_batch=2,
    )
    executor = router.batch_executor
    nets = router.schedule_nets()
    assert len(nets) >= 20
    split = len(nets) // 2
    solution = RoutingSolution(design_name=design.name, router_name=router.name)
    try:
        executor.route_nets(nets[:split], solution)
        first_forks = executor.stats.pool_forks
        first_replayed = executor.stats.replayed_ops
        first_messages = executor.stats.suffix_messages
        assert first_forks == 2  # one persistent fork per worker
        # Discarding the pool keeps the counters it wrote...
        executor._discard_pool()
        assert executor.stats.pool_forks == first_forks
        assert executor.stats.replayed_ops == first_replayed
        assert executor.stats.suffix_messages == first_messages
        # ...and the lazy re-fork starts a fresh generation whose counters
        # accumulate on top instead of resetting or re-adding.
        executor.route_nets(nets[split:], solution)
        assert executor.stats.pool_forks == first_forks + 2
        assert executor.stats.replayed_ops >= first_replayed
    finally:
        executor.close()


@needs_fork
def test_suffix_message_batching_accounts_and_elides():
    router = make_router(
        "color-state", sparse_case(), parallelism=2, batch_backend="pool",
        min_fork_batch=2,
    )
    fingerprint = solution_fingerprint(router.run())
    assert fingerprint == serial_reference("color-state")
    stats = router.batch_executor.stats
    assert stats.suffix_messages > 0
    # The shared frame cache: two workers at the same journal cursor get
    # one pickle, so strictly fewer pickles than messages...
    assert stats.suffix_pickles < stats.suffix_messages
    # ...and the saved duplicate bytes are accounted.
    assert stats.suffix_bytes_saved > 0
    assert stats.suffix_bytes > 0
    # In-sync workers get the None sentinel instead of an empty frame.
    assert stats.suffix_elisions >= 0
    # The counters ride into the merged dict (campaign/bench JSON).
    merged = stats.as_dict()
    for key in (
        "suffix_messages", "suffix_pickles", "suffix_bytes",
        "suffix_bytes_saved", "suffix_elisions",
    ):
        assert merged[key] == getattr(stats, key)


# ----------------------------------------------------------------------
# (c) Checkpoint round-trips through repro.io
# ----------------------------------------------------------------------

def test_checkpoint_roundtrip_restores_grid_and_solution(tmp_path):
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    solution = make_router("maze", design, grid=grid).run()

    path = tmp_path / "campaign.ckpt.json"
    save_checkpoint(path, design, grid, solution)
    _design2, grid2, solution2 = load_checkpoint(path)
    assert_grids_bit_identical(grid, grid2)
    assert solution_fingerprint(solution2) == solution_fingerprint(solution)
    # The restored grid records nothing until a journal is attached.
    assert grid2.journal is None


def test_route_with_checkpoint_resumes_without_rerouting(tmp_path):
    from repro.eval.experiments import route_with_checkpoint

    path = tmp_path / "table.ckpt.json"
    solution, grid, resumed = route_with_checkpoint(
        build_case("ispd18", 1, 0.5), DetailedRouter, path
    )
    assert not resumed and path.exists()
    # Second run resumes: same solution and bit-identical grid, no routing.
    solution2, grid2, resumed2 = route_with_checkpoint(
        build_case("ispd18", 1, 0.5), DetailedRouter, path
    )
    assert resumed2
    assert solution_fingerprint(solution2) == solution_fingerprint(solution)
    assert_grids_bit_identical(grid, grid2)


def test_checkpoint_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_route_with_checkpoint_rejects_stale_checkpoint_for_other_design(tmp_path):
    from repro.eval.experiments import route_with_checkpoint

    path = tmp_path / "stale.ckpt.json"
    route_with_checkpoint(build_case("ispd18", 1, 0.5), DetailedRouter, path)
    with pytest.raises(ValueError, match="differs from the requested design"):
        route_with_checkpoint(build_case("ispd19", 2, 0.5), DetailedRouter, path)


def test_route_with_checkpoint_rejects_other_routers_campaign(tmp_path):
    from repro.eval.experiments import route_with_checkpoint

    path = tmp_path / "router.ckpt.json"
    route_with_checkpoint(build_case("ispd18", 1, 0.5), DetailedRouter, path)
    with pytest.raises(ValueError, match="not the requested"):
        route_with_checkpoint(
            build_case("ispd18", 1, 0.5), MrTPLRouter, path, use_global_router=False
        )


def test_checkpoint_saves_atomically(tmp_path):
    design = build_case("ispd18", 1, 0.5)
    grid = RoutingGrid(design)
    solution = make_router("maze", design, grid=grid).run()
    path = tmp_path / "atomic.ckpt.json"
    save_checkpoint(path, design, grid, solution)
    save_checkpoint(path, design, grid, solution)  # overwrite in place
    assert not list(tmp_path.glob("*.tmp"))  # scratch file renamed away
    load_checkpoint(path)
