"""Grid-snapshot checkpoints and preemption-safe resume.

Three layers of guarantees, each proven differentially:

* **Snapshot layer** -- ``RoutingGrid.snapshot_state`` / ``restore_state``
  reproduce a campaign-mutated grid byte-for-byte, equal to full journal
  replay, for seeded campaigns of all three routers.
* **Durability layer** -- ``_write_atomic`` survives crash injection
  (SIGKILL mid-save leaves either the previous complete document or
  nothing), uses unique scratch names, and cleans up on failure.
* **Hardening layer** -- the integrity checksum rejects torn and corrupt
  documents, keep-K rotation retains older generations (and never rotates
  a torn live file over the last good one), and the fallback loader plus
  ``route_with_checkpoint`` resume from the newest valid generation.
* **Campaign layer** -- ``route_with_checkpoint`` checkpoints every rip-up
  iteration as a grid snapshot, and a SIGKILLed campaign resumes from its
  last completed iteration with a solution bit-identical to the
  uninterrupted run.  Journal-based documents of earlier formats are
  refused.

Plus the pool paths: a pool campaign under ``route_with_checkpoint``
matches serial, and pool workers that ignore SIGTERM are
terminate/kill-escalated instead of leaked.
"""

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.baselines.dac2012 import Dac2012Router
from repro.bench.micro import fig1_dense_cluster, solution_fingerprint
from repro.bench.suites import suite_case
from repro.campaign import CampaignState
from repro.dr.router import DetailedRouter
from repro.eval.experiments import route_with_checkpoint
from repro.grid import RoutingGrid
from repro.io import checkpoint_io
from repro.io.checkpoint_io import (
    CHECKPOINT_FORMAT,
    CheckpointIntegrityError,
    _write_atomic,
    checkpoint_candidates,
    checkpoint_checksum,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    load_checkpoint_document,
    load_checkpoint_document_with_fallback,
    rotate_checkpoints,
    save_checkpoint,
)
from repro.io.json_io import solution_to_dict
from repro.journal import MutationJournal, replay_ops
from repro.sched.executor import PersistentWorkerPool, _PoolWorker, _shutdown_workers
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
        grid._net_pressure,
        grid._net_colored_vertices,
    )


def assert_grids_bit_identical(live, fresh):
    for component_index, (a, b) in enumerate(zip(full_grid_digest(live), full_grid_digest(fresh))):
        assert a == b, f"grid digest component {component_index} differs"


def routes_dict(solution):
    document = solution_to_dict(solution)
    document.pop("runtime_seconds")
    return document


# ----------------------------------------------------------------------
# (a) Snapshot layer: restore == full replay, byte for byte
# ----------------------------------------------------------------------

@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_snapshot_restore_equals_full_replay(router_key):
    design = build_case()
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    make_router(router_key, design, grid=grid).run()

    grid.detach_journal()
    snapshot = json.loads(json.dumps(grid.snapshot_state()))  # through JSON

    restored = RoutingGrid(design)
    restored.restore_state(snapshot)
    replayed = RoutingGrid(design)
    replay_ops(replayed, journal.ops)

    assert_grids_bit_identical(grid, restored)
    assert_grids_bit_identical(replayed, restored)
    assert restored.mutation_epoch == grid.mutation_epoch


def test_snapshot_restore_validates_and_fires_reset_hooks():
    design = fig1_dense_cluster()
    grid = RoutingGrid(design)
    journal = grid.attach_journal()
    MrTPLRouter(design, grid=grid, use_global_router=False).run()
    snapshot = grid.snapshot_state()

    other = RoutingGrid(design, pitch=grid.pitch * 2)
    with pytest.raises(ValueError, match="dimensions"):
        other.restore_state(snapshot)
    with pytest.raises(ValueError, match="not a repro-grid-snapshot"):
        RoutingGrid(design).restore_state({"format": "bogus"})
    # A journal is a stream of individual ops; a bulk restore cannot be
    # represented in it, so restoring a journal-attached grid is refused.
    with pytest.raises(RuntimeError, match="journal"):
        grid.restore_state(snapshot)

    fresh = RoutingGrid(design)
    fired = []
    fresh.add_delta_listener(type("Listener", (), {"on_reset": lambda self: fired.append(True)})())
    fresh.restore_state(snapshot)
    assert fired, "restore_state must fire on_reset so stale tallies are dropped"


def test_journal_suffix_raises_on_future_cursor():
    journal = MutationJournal()
    journal.record(("history", 1, 3, 1.0))
    assert journal.suffix(journal.cursor) == []
    # A stale worker cursor past the head is desync, not "nothing to
    # replay" -- it must fail loudly.
    with pytest.raises(ValueError, match="desynchronised"):
        journal.suffix(journal.cursor + 1)


# ----------------------------------------------------------------------
# (b) Durability: atomic writes under crash injection
# ----------------------------------------------------------------------

def test_write_atomic_uses_unique_scratch_names(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    scratches = []
    real_replace = os.replace

    def record_replace(src, dst):
        scratches.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", record_replace)
    _write_atomic(target, "one")
    _write_atomic(target, "two")
    assert target.read_text() == "two"
    assert len(set(scratches)) == 2, "concurrent writers must never share a scratch path"
    for scratch in scratches:
        assert scratch != str(target)
        assert os.path.dirname(scratch) == str(tmp_path)


def test_write_atomic_failure_leaves_no_debris(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    _write_atomic(target, "good")

    def explode(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError, match="disk gone"):
        _write_atomic(target, "bad")
    monkeypatch.undo()
    assert target.read_text() == "good"  # old document intact
    assert list(tmp_path.iterdir()) == [target]  # scratch cleaned up


def _checkpoint_writer_loop(path, design_payload):
    """Child body: overwrite the same checkpoint as fast as possible."""
    from repro.io.json_io import design_from_dict

    design = design_from_dict(design_payload)
    grid = RoutingGrid(design)
    sequence = 0
    while True:
        grid.occupy(grid.vertex_of(sequence % grid.plane_size), f"net{sequence}")
        sequence += 1
        save_checkpoint(path, design, grid)


@needs_fork
def test_sigkill_mid_save_never_surfaces_a_torn_checkpoint(tmp_path):
    from repro.io.json_io import design_to_dict

    path = tmp_path / "ckpt.json"
    design = fig1_dense_cluster()
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=_checkpoint_writer_loop, args=(path, design_to_dict(design)), daemon=True
    )
    process.start()
    try:
        deadline = time.time() + 10
        while not path.exists() and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)  # let a few overwrites race
    finally:
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
    if path.exists():
        # Whatever survived must be a complete, loadable document --
        # never a torn or zero-length one.
        loaded_design, _grid, _solution = load_checkpoint(path)
        assert loaded_design.name == design.name
    else:
        pytest.skip("writer was killed before its first complete save")


# ----------------------------------------------------------------------
# (c) Hardening: checksum, keep-K rotation, fallback loading
# ----------------------------------------------------------------------

def _saved_checkpoint(path):
    design = fig1_dense_cluster()
    grid = RoutingGrid(design)
    grid.occupy(grid.vertex_of(0), "net0")
    save_checkpoint(path, design, grid)
    return design


def test_checksum_guards_document_integrity(tmp_path):
    path = tmp_path / "ckpt.json"
    _saved_checkpoint(path)

    document = load_checkpoint_document(path)  # valid: loads fine
    assert document["checksum"] == checkpoint_checksum(document)

    # Silent in-place corruption (bit rot): checksum mismatch.
    document["design"]["name"] = "tampered"
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointIntegrityError, match="checksum"):
        load_checkpoint_document(path)

    # Torn write: unparseable JSON.
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointIntegrityError, match="corrupt"):
        load_checkpoint_document(path)

    # Wrong shape entirely.
    path.write_text("[1, 2, 3]")
    with pytest.raises(CheckpointIntegrityError, match="not a JSON object"):
        load_checkpoint_document(path)

    # A missing file stays FileNotFoundError (callers branch on it).
    with pytest.raises(FileNotFoundError):
        load_checkpoint_document(tmp_path / "absent.json")


def test_rotation_retains_generations_and_never_unlinks_live(tmp_path):
    path = tmp_path / "ckpt.json"
    design = fig1_dense_cluster()
    grid = RoutingGrid(design)

    generations = []
    for step in range(3):
        grid.occupy(grid.vertex_of(step), f"net{step}")
        save_checkpoint(path, design, grid, keep=3)
        generations.append(path.read_text())
        assert path.exists()  # the live path never disappears mid-rotation

    one, two = checkpoint_candidates(path, keep=3)[1:]
    assert path.read_text() == generations[2]
    assert one.read_text() == generations[1]
    assert two.read_text() == generations[0]

    # keep=1 disables rotation entirely.
    solo = tmp_path / "solo.json"
    save_checkpoint(solo, design, grid, keep=1)
    save_checkpoint(solo, design, grid, keep=1)
    assert not checkpoint_candidates(solo, keep=3)[1].exists()


def test_rotation_never_rotates_a_torn_live_file(tmp_path):
    # After a resume from path.1 (because path is torn), the next save
    # rotates first.  Copying the torn file over path.1 would leave no
    # valid generation until the new write lands.
    path = tmp_path / "ckpt.json"
    design = fig1_dense_cluster()
    grid = RoutingGrid(design)
    save_checkpoint(path, design, grid, keep=2)
    grid.occupy(grid.vertex_of(1), "net1")
    save_checkpoint(path, design, grid, keep=2)
    aged = checkpoint_candidates(path, keep=2)[1]
    last_good = aged.read_text()

    path.write_text(path.read_text()[:40])  # tear the live document
    rotate_checkpoints(path, keep=2)
    assert aged.read_text() == last_good
    document = load_checkpoint_document(aged)
    assert document["checksum"] == checkpoint_checksum(document)


def test_fallback_loader_prefers_newest_valid(tmp_path):
    path = tmp_path / "ckpt.json"
    design = fig1_dense_cluster()
    grid = RoutingGrid(design)
    save_checkpoint(path, design, grid, keep=2)
    grid.occupy(grid.vertex_of(1), "net1")
    save_checkpoint(path, design, grid, keep=2)
    aged = checkpoint_candidates(path, keep=2)[1]

    document, used = load_checkpoint_document_with_fallback(path, keep=2)
    assert used == path  # newest valid wins when intact

    path.write_text(path.read_text()[:40])  # tear the newest
    document, used = load_checkpoint_document_with_fallback(path, keep=2)
    assert used == aged
    assert document["checksum"] == checkpoint_checksum(document)

    aged.write_text("{")  # now every generation is corrupt
    with pytest.raises(CheckpointIntegrityError, match="ckpt.json"):
        load_checkpoint_document_with_fallback(path, keep=2)

    path.unlink()
    aged.unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint_document_with_fallback(path, keep=2)


def test_injected_tear_leaves_recoverable_generation(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    design = _saved_checkpoint(path)
    grid = RoutingGrid(design)
    grid.occupy(grid.vertex_of(2), "torn-net")

    def torn_write(target, text):
        # The power-loss window a non-atomic writer would expose: half a
        # document under the final name.
        with open(target, "w") as handle:
            handle.write(text[: len(text) // 2])

    monkeypatch.setattr(checkpoint_io, "_write_atomic", torn_write)
    save_checkpoint(path, design, grid, keep=2)
    # The newest document landed torn...
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint_document(path)
    # ...but rotation preserved the previous complete generation.
    document, used = load_checkpoint_document_with_fallback(path, keep=2)
    assert used == checkpoint_candidates(path, keep=2)[1]
    assert document["format"].startswith("repro-checkpoint")


@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_torn_final_checkpoint_resume(router_key, tmp_path):
    # A campaign's final checkpoint lands torn (power loss mid-write).
    # Resume must fall back to the retained previous generation, finish
    # the campaign and still produce the uninterrupted run's solution,
    # with the fallback recorded in the campaign's stats.
    design = fig1_dense_cluster()
    path = tmp_path / "ckpt.json"
    kwargs = _router_kwargs(router_key)
    solution, _grid, resumed = route_with_checkpoint(
        design, ROUTERS[router_key], path, checkpoint_keep=2, **kwargs
    )
    assert not resumed
    reference = solution_fingerprint(solution)

    path.write_text(path.read_text()[:64])  # tear the newest document
    solution2, _grid2, resumed2 = route_with_checkpoint(
        fig1_dense_cluster(), ROUTERS[router_key], path, checkpoint_keep=2, **kwargs
    )
    assert resumed2
    assert solution_fingerprint(solution2) == reference
    # The re-finished campaign re-saved a valid document recording the
    # fallback, so a *resumed* campaign keeps its history.
    document = load_checkpoint_document(path)
    assert document["campaign"]["done"] is True
    assert document["campaign"]["executor_stats"]["checkpoint_fallbacks"] == 1


# ----------------------------------------------------------------------
# (d) Campaign layer: per-iteration checkpoints + preemption-safe resume
# ----------------------------------------------------------------------

@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_route_with_checkpoint_saves_every_iteration(router_key, tmp_path):
    design = fig1_dense_cluster()
    path = tmp_path / "ckpt.json"
    seen = []
    solution, grid, resumed = route_with_checkpoint(
        design, ROUTERS[router_key], path,
        on_checkpoint=lambda campaign: seen.append((campaign.iteration, campaign.done)),
        **({} if router_key == "maze" else {"use_global_router": False}),
    )
    assert not resumed
    iterations = [iteration for iteration, _done in seen]
    assert iterations[0] == 0  # initial routing checkpointed
    assert iterations[:-1] == list(range(solution.iterations + 1))
    assert seen[-1] == (solution.iterations, True)  # final save marks done

    document = load_checkpoint_document(path)
    assert document["format"] == CHECKPOINT_FORMAT
    assert document["campaign"]["done"] is True
    # The grid travels as a snapshot, bounded by the grid -- not the
    # campaign's op history.
    assert "journal" not in document
    assert document["grid"]["format"] == RoutingGrid.SNAPSHOT_FORMAT

    # Restoring the document reproduces the final grid bit-for-bit.
    _design, restored_grid, saved_solution = checkpoint_from_dict(document)
    assert grid.journal is None and restored_grid.journal is None
    assert_grids_bit_identical(grid, restored_grid)
    assert routes_dict(saved_solution) == routes_dict(solution)

    # A second call resumes the finished campaign without routing.
    solution2, _grid2, resumed2 = route_with_checkpoint(
        fig1_dense_cluster(), ROUTERS[router_key], path,
        **({} if router_key == "maze" else {"use_global_router": False}),
    )
    assert resumed2
    assert routes_dict(solution2) == routes_dict(solution)


def test_route_with_checkpoint_every_n(tmp_path):
    design = fig1_dense_cluster()
    seen = []
    solution, _grid, _resumed = route_with_checkpoint(
        design, MrTPLRouter, tmp_path / "ckpt.json",
        checkpoint_every=2,
        on_checkpoint=lambda campaign: seen.append(campaign.iteration),
        use_global_router=False,
    )
    body = [iteration for iteration in seen[:-1]]
    assert body == [i for i in range(solution.iterations + 1) if i % 2 == 0]
    assert seen[-1] == solution.iterations  # the final save always happens
    with pytest.raises(ValueError, match="checkpoint_every"):
        route_with_checkpoint(design, MrTPLRouter, tmp_path / "other.json",
                              checkpoint_every=0, use_global_router=False)


def test_v2_checkpoints_are_refused(tmp_path):
    """Journal-based documents of the previous format no longer load."""
    design = fig1_dense_cluster()
    grid = RoutingGrid(design)
    solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()

    document = checkpoint_to_dict(design, grid, solution)
    document["format"] = "repro-checkpoint-v2"
    document["journal"] = {"ops": [], "base": 0, "snapshot": document.pop("grid")}
    document["checksum"] = checkpoint_checksum(document)
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(document))

    loaded = load_checkpoint_document(path)  # intact, so the checksum passes
    with pytest.raises(ValueError, match="repro-checkpoint-v3"):
        checkpoint_from_dict(loaded)
    with pytest.raises(ValueError, match="repro-checkpoint-v3"):
        route_with_checkpoint(
            fig1_dense_cluster(), MrTPLRouter, path, use_global_router=False
        )
    with pytest.raises(ValueError, match="repro-checkpoint"):
        checkpoint_from_dict({"format": "not-a-checkpoint"})


#: Designs of the SIGKILL resume test.  On ispd19 test2 Mr.TPL's best
#: iteration is round 1, so a campaign killed after round 2 has to restore
#: it from the checkpointed best routes -- on the grid as well.
RESUME_DESIGNS = {
    "fig1_dense_cluster": fig1_dense_cluster,
    "ispd19_test2": lambda: build_case("ispd19", 2),
}


def _router_kwargs(router_key):
    return {} if router_key == "maze" else {"use_global_router": False}


def _interrupted_campaign_child(router_key, design_key, path, kill_after):
    """Child body: route with checkpoints, SIGKILL ourselves mid-campaign."""
    def maybe_die(campaign):
        if campaign.iteration >= kill_after and not campaign.done:
            os.kill(os.getpid(), signal.SIGKILL)

    route_with_checkpoint(
        RESUME_DESIGNS[design_key](), ROUTERS[router_key], path,
        on_checkpoint=maybe_die, **_router_kwargs(router_key),
    )


@needs_fork
@pytest.mark.parametrize(
    "router_key, design_key",
    [
        ("color-state", "fig1_dense_cluster"),
        ("dac2012", "fig1_dense_cluster"),
        ("maze", "fig1_dense_cluster"),
        ("color-state", "ispd19_test2"),
    ],
    ids=["color-state", "dac2012", "maze", "color-state-ispd19_test2"],
)
def test_sigkilled_campaign_resumes_bit_identical(router_key, design_key, tmp_path):
    """The acceptance criterion: preemption mid-rip-up loses nothing.

    A campaign SIGKILLed after its second completed iteration resumes from
    the checkpoint at that exact iteration and converges on a solution
    and a grid (occupancy and mask colours) bit-identical to an
    uninterrupted run's.
    """
    kwargs = _router_kwargs(router_key)
    reference, reference_grid, _resumed = route_with_checkpoint(
        RESUME_DESIGNS[design_key](), ROUTERS[router_key],
        tmp_path / "reference.json", **kwargs
    )
    assert reference.iterations >= 3, "case too easy to interrupt meaningfully"

    path = tmp_path / "interrupted.json"
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=_interrupted_campaign_child,
        args=(router_key, design_key, path, 2),
        daemon=True,
    )
    process.start()
    process.join(timeout=120)
    assert process.exitcode == -signal.SIGKILL

    document = load_checkpoint_document(path)
    assert document["campaign"]["done"] is False
    assert document["campaign"]["iteration"] == 2

    resumed_solution, resumed_grid, resumed = route_with_checkpoint(
        RESUME_DESIGNS[design_key](), ROUTERS[router_key], path, **kwargs
    )
    assert resumed
    assert resumed_solution.iterations == reference.iterations
    assert routes_dict(resumed_solution) == routes_dict(reference)
    assert solution_fingerprint(resumed_solution) == solution_fingerprint(reference)
    # Occupancy and mask colours only: a conflict's history anchor follows
    # the checker's scan order, which the checker rebuilt on resume need
    # not share (see ROADMAP), so history may land on other vertices.
    assert resumed_grid.owner_buffer() == reference_grid.owner_buffer()
    assert resumed_grid._color_buf == reference_grid._color_buf
    # ...and the resumed campaign's own final checkpoint is now complete.
    assert load_checkpoint_document(path)["campaign"]["done"] is True


def test_checkpoint_refuses_mismatched_campaigns(tmp_path):
    path = tmp_path / "ckpt.json"
    route_with_checkpoint(fig1_dense_cluster(), MrTPLRouter, path, use_global_router=False)
    with pytest.raises(ValueError, match="campaign"):
        route_with_checkpoint(fig1_dense_cluster(), DetailedRouter, path)


# ----------------------------------------------------------------------
# (e) Pool workers: fork bootstrap, checkpointed campaigns, shutdown
# ----------------------------------------------------------------------

@needs_fork
def test_pool_fork_bootstrap_matches_serial():
    design = build_case()
    reference = solution_fingerprint(make_router("color-state", design).run())

    design2 = build_case()
    router = make_router(
        "color-state", design2, grid=RoutingGrid(design2),
        parallelism=2, batch_backend="pool", min_fork_batch=2,
    )
    solution = router.run()
    stats = router.batch_executor.stats
    assert solution_fingerprint(solution) == reference
    if stats.parallel_batches:
        assert stats.pool_forks > 0
    assert stats.worker_errors == 0


@needs_fork
def test_pool_campaign_under_checkpoint_matches_serial(tmp_path):
    """Checkpoints taken while pool workers are live leave routing exact."""
    design = build_case()
    path = tmp_path / "ckpt.json"
    saves = []
    solution, grid, _resumed = route_with_checkpoint(
        design, MrTPLRouter, path,
        on_checkpoint=lambda campaign: saves.append(campaign.iteration),
        use_global_router=False,
        parallelism=2, batch_backend="pool", min_fork_batch=2,
    )
    assert saves  # checkpoints happened with the pool live
    reference = solution_fingerprint(make_router("color-state", build_case()).run())
    assert solution_fingerprint(solution) == reference


def _ignore_sigterm_and_hang():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(60)


@needs_fork
def test_shutdown_workers_escalates_on_hung_worker():
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_ignore_sigterm_and_hang, daemon=True)
    process.start()
    parent_conn, child_conn = context.Pipe()
    child_conn.close()
    worker = _PoolWorker(process, parent_conn, 0)
    try:
        killed = _shutdown_workers([worker], join_timeout=0.2, escalate_timeout=5.0)
    finally:
        if process.is_alive():  # belt and braces: never leak from the test
            process.kill()
            process.join(timeout=5)
    assert killed == 1
    assert not process.is_alive()


def test_discard_pool_accounts_worker_kills():
    class FakePool:
        def close(self, join_timeout=5.0):
            return 3

    design = fig1_dense_cluster()
    router = make_router(
        "color-state", design, grid=RoutingGrid(design),
        parallelism=2, batch_backend="pool",
    )
    executor = router.batch_executor
    executor._pool = FakePool()
    executor._discard_pool()
    assert executor.stats.worker_kills == 3
    assert executor.stats.as_dict()["worker_kills"] == 3
