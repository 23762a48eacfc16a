"""Fault injection, supervision and the differential fault matrix.

Three layers:

* **Harness layer** -- the ``REPRO_FAULT_PLAN`` grammar parses (and
  rejects typos loudly), clauses trigger deterministically (``@nth``,
  ``times=``, ``worker=``, ``op=``, seeded ``p=``), arming is scoped and
  zero-cost when off.
* **Classification layer** -- worker payloads and raised exceptions map
  to the failure-kind taxonomy, :class:`WorkerFailure` aggregates every
  per-worker detail (index + journal cursor in the message), the
  degradation ladder and the supervisor's env knobs resolve correctly,
  and hardened checkpoint loading rejects torn/corrupt documents while
  the keep-K rotation always leaves a valid fallback.
* **Differential matrix** -- each injected fault class (worker crash,
  hang, slow reply, dropped pipe, compute error, torn checkpoint) against
  each of the three routers on a pool-engaging case: the campaign must
  complete, the solution must be **bit-identical** to the fault-free
  serial run, and the recovery must be visible in ``ExecutorStats``
  (retries, replacements, deadline timeouts, demotions).  Plus the
  ladder's demote-to-serial floor.
"""

import json
import multiprocessing
import sys

import pytest

from repro import faults
from repro.baselines.dac2012 import Dac2012Router
from repro.bench.micro import fig1_dense_cluster, solution_fingerprint
from repro.bench.suites import sparse_suite
from repro.dr.router import DetailedRouter
from repro.eval.experiments import route_with_checkpoint
from repro.faults import FaultError, PipeDropFault, injected, parse_plan
from repro.grid import RoutingGrid
from repro.io.checkpoint_io import (
    CheckpointIntegrityError,
    checkpoint_candidates,
    checkpoint_checksum,
    load_checkpoint_document,
    load_checkpoint_document_with_fallback,
    save_checkpoint,
)
from repro.sched.supervisor import (
    FailureDetail,
    SupervisorConfig,
    WorkerFailure,
    classify_exception,
    classify_worker_payload,
    degradation_ladder,
)
from repro.tpl.mr_tpl import MrTPLRouter

ROUTERS = {
    "maze": DetailedRouter,
    "color-state": MrTPLRouter,
    "dac2012": Dac2012Router,
}

HAVE_FORK = sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")

#: Executor knobs that reliably engage the persistent pool on the sparse
#: case below (18+ batches, 8 of them parallel) even on a 1-CPU host.
POOL_KW = dict(parallelism=2, batch_backend="pool", min_fork_batch=2)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with fault injection fully disarmed."""
    faults.clear_plan()
    faults.clear_context()
    yield
    faults.clear_plan()
    faults.clear_context()


def sparse_case():
    return sparse_suite(0.4)[0].build()


def make_router(router_key, design, **kwargs):
    if router_key != "maze":
        kwargs.setdefault("use_global_router", False)
    return ROUTERS[router_key](design, grid=RoutingGrid(design), **kwargs)


_SERIAL_REFS = {}


def serial_reference(router_key):
    """Fault-free serial fingerprint of the sparse case (cached per router)."""
    if router_key not in _SERIAL_REFS:
        assert not faults.ARMED  # the oracle must never see a fault
        router = make_router(router_key, sparse_case())
        _SERIAL_REFS[router_key] = solution_fingerprint(router.run())
    return _SERIAL_REFS[router_key]


def run_supervised(router_key, **kwargs):
    """Route the sparse case with supervision knobs; return (fingerprint, router)."""
    merged = dict(POOL_KW)
    merged.update(kwargs)
    router = make_router(router_key, sparse_case(), **merged)
    fingerprint = solution_fingerprint(router.run())
    return fingerprint, router


# ----------------------------------------------------------------------
# (a) Harness: plan grammar, triggers, arming
# ----------------------------------------------------------------------

def test_parse_plan_clauses_and_params():
    plan = parse_plan(
        "worker.crash@3:worker=1,op=40,times=2;"
        "reply.delay:seconds=0.25,times=*;"
        "compute.error:p=0.5",
        seed=7,
    )
    crash, delay, error = plan.clauses
    assert (crash.site, crash.nth, crash.times, crash.target_worker) == (
        "worker.crash", 3, 2, 1,
    )
    assert crash.params["op"] == 40
    assert (delay.times, delay.seconds(0.05)) == (None, 0.25)
    assert error.probability == 0.5
    assert plan.seed == 7


@pytest.mark.parametrize("bad", [
    "worker.crush",                 # typo'd site
    "worker.crash@0",               # nth below 1
    "worker.crash:times=0",         # times below 1
    "compute.error:p=1.5",          # probability outside [0, 1]
    "reply.delay:seconds",          # param without '='
])
def test_parse_plan_rejects_bad_clauses(bad):
    with pytest.raises(ValueError):
        parse_plan(bad)


def test_clause_nth_skips_and_times_caps():
    plan = parse_plan("compute.error@3:times=2")
    fired = [plan.match("compute.error", {}) is not None for _ in range(6)]
    # Eligible hits 1-2 skipped (@3), hits 3-4 fire (times=2), then spent.
    assert fired == [False, False, True, True, False, False]


def test_clause_worker_and_op_triggers():
    plan = parse_plan("worker.crash:worker=1,op=10,times=*")
    assert plan.match("worker.crash", {"worker": 0, "ops_seen": 99}) is None
    assert plan.match("worker.crash", {"worker": 1, "ops_seen": 9}) is None
    assert plan.match("worker.crash", {"worker": 1}) is None  # no cursor yet
    assert plan.match("worker.crash", {"worker": 1, "ops_seen": 10}) is not None


def test_probabilistic_clause_is_deterministic_per_seed():
    def pattern(seed):
        plan = parse_plan("compute.error:p=0.5,times=*", seed=seed)
        return [plan.match("compute.error", {}) is not None for _ in range(32)]

    assert pattern(3) == pattern(3)  # same seed, same firing sequence
    assert any(pattern(3)) and not all(pattern(3))  # actually probabilistic


def test_arming_scopes_and_env_reload(monkeypatch):
    assert not faults.ARMED
    assert faults.fire("compute.error") is None  # disarmed: no-op, no raise

    with injected("reply.delay:seconds=0"):
        assert faults.ARMED
        assert faults.active_plan().clauses[0].site == "reply.delay"
    assert not faults.ARMED and faults.active_plan() is None

    monkeypatch.setenv(faults.FAULT_PLAN_ENV, "pipe.drop:worker=2")
    monkeypatch.setenv(faults.FAULT_SEED_ENV, "9")
    plan = faults.reload_from_env()
    assert faults.ARMED and plan.seed == 9
    monkeypatch.delenv(faults.FAULT_PLAN_ENV)
    assert faults.reload_from_env() is None
    assert not faults.ARMED


def test_process_context_supplies_worker_identity():
    with injected("pipe.drop:worker=3,times=*"):
        with pytest.raises(PipeDropFault):
            faults.fire("pipe.drop", worker=3)  # explicit ctx
        assert faults.fire("pipe.drop") is None  # no identity, no match
        faults.set_context(worker=3)
        with pytest.raises(PipeDropFault):
            faults.fire("pipe.drop")  # identity from process context
        with pytest.raises(PipeDropFault):
            faults.fire("pipe.drop", worker=3)  # explicit still wins
        assert faults.fire("pipe.drop", worker=1) is None  # override beats context
        faults.clear_context()
        assert faults.fire("pipe.drop") is None


def test_fire_actions():
    with injected("compute.error;checkpoint.tear"):
        with pytest.raises(FaultError):
            faults.fire("compute.error", net="n1")
        clause = faults.fire("checkpoint.tear", path="x")  # reported, not acted
        assert clause is not None and clause.site == "checkpoint.tear"
        assert faults.fire("checkpoint.tear", path="x") is None  # times=1 spent


# ----------------------------------------------------------------------
# (b) Classification, ladder, supervisor knobs
# ----------------------------------------------------------------------

def test_classify_worker_payload():
    detail = classify_worker_payload(
        {"kind": "replay", "error": "KeyError('x')", "ops_seen": 17, "net": "n2"},
        worker=4, cursor=120,
    )
    # The worker's own replay cursor (ops_seen) wins over the parent-side
    # cursor: it reports how far the worker actually got.
    assert (detail.kind, detail.worker, detail.cursor, detail.net) == (
        "replay", 4, 17, "n2",
    )
    assert "KeyError" in detail.message
    bare = classify_worker_payload("worker pipe closed", 1, None)
    assert bare.kind == "compute" and bare.worker == 1


def test_classify_exception():
    assert classify_exception(BrokenPipeError()) == "crash"
    assert classify_exception(EOFError()) == "crash"
    assert classify_exception(FaultError("injected")) == "compute"
    assert classify_exception(ValueError("design error")) == "fatal"


def test_worker_failure_aggregates_every_detail():
    failure = WorkerFailure([
        FailureDetail(worker=0, kind="crash", cursor=120,
                      message="worker pipe closed mid-batch (EOF)"),
        FailureDetail(worker=2, kind="compute", cursor=348, net="n7",
                      message="FaultError('injected')"),
    ], context="pool batch")
    text = str(failure)
    # Satellite (a): every failed worker's index and journal cursor are in
    # the aggregated message -- not just the first failure's.
    assert "worker 0" in text and "@cursor 120" in text
    assert "worker 2" in text and "@cursor 348" in text
    assert failure.kind == "crash"  # most severe of the details
    assert failure.retryable

    fatal = WorkerFailure([
        FailureDetail(worker=None, kind="fatal", message="TypeError"),
    ])
    assert not fatal.retryable


def test_degradation_ladder():
    assert degradation_ladder("pool") == ("pool", "serial")
    assert degradation_ladder("serial") == ("serial",)
    for unknown in ("thread", "gpu"):
        with pytest.raises(ValueError):
            degradation_ladder(unknown)


def test_supervisor_config_from_env(monkeypatch):
    config = SupervisorConfig.from_env()
    assert config.deadline_seconds(4) == pytest.approx(60.0 + 15.0 * 4)
    assert config.backoff_seconds(1) == pytest.approx(0.05)
    assert config.backoff_seconds(3) == pytest.approx(0.20)

    monkeypatch.setenv("REPRO_BATCH_DEADLINE", "0")  # 0 = deadlines off
    assert SupervisorConfig.from_env().deadline_seconds(100) is None
    monkeypatch.setenv("REPRO_BATCH_DEADLINE", "2.5")  # override wins
    monkeypatch.setenv("REPRO_BATCH_RETRIES", "5")
    monkeypatch.setenv("REPRO_DEMOTE_AFTER", "1")
    config = SupervisorConfig.from_env()
    assert config.deadline_seconds(100) == pytest.approx(2.5)
    assert (config.max_retries, config.demote_after) == (5, 1)
    assert SupervisorConfig.from_env(max_retries=0).max_retries == 0


# ----------------------------------------------------------------------
# (c) Checkpoint hardening: checksum, rotation, fallback
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


def test_injected_tear_leaves_recoverable_generation(tmp_path):
    path = tmp_path / "ckpt.json"
    design = _saved_checkpoint(path)
    grid = RoutingGrid(design)
    grid.occupy(grid.vertex_of(2), "torn-net")
    with injected("checkpoint.tear"):
        save_checkpoint(path, design, grid, keep=2)
    # The fault tore the *newest* document mid-write...
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint_document(path)
    # ...but rotation preserved the previous complete generation.
    document, used = load_checkpoint_document_with_fallback(path, keep=2)
    assert used == checkpoint_candidates(path, keep=2)[1]
    assert document["format"].startswith("repro-checkpoint")


# ----------------------------------------------------------------------
# (d) Differential fault matrix: every fault class x every router,
#     bit-identical to the fault-free serial run, recovery in the stats
# ----------------------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_matrix_worker_crash_mid_campaign(router_key):
    # Worker 0 hard-exits (os._exit, as if SIGKILLed) once its replayed-op
    # cursor reaches 200 -- mid-campaign, between nets.  Replacement
    # workers get fresh indices, so the clause can never re-fire on them.
    with injected("worker.crash:worker=0,op=200"):
        fingerprint, router = run_supervised(router_key)
    stats = router.batch_executor.stats
    assert fingerprint == serial_reference(router_key)
    assert stats.worker_errors >= 1
    assert stats.retries >= 1
    assert stats.worker_replacements >= 1
    assert stats.demotions == 0  # surgical recovery, no tier lost


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_matrix_worker_hang_hits_deadline(router_key, monkeypatch):
    # Worker 0 sleeps far past the 2s batch deadline; the supervisor
    # times it out, reaps it and retries on a replacement.
    monkeypatch.setenv("REPRO_BATCH_DEADLINE", "2")
    with injected("worker.hang:worker=0,seconds=30"):
        fingerprint, router = run_supervised(router_key)
    stats = router.batch_executor.stats
    assert fingerprint == serial_reference(router_key)
    assert stats.deadline_timeouts >= 1
    assert stats.worker_replacements >= 1
    assert stats.retries >= 1


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_matrix_slow_replies_within_deadline(router_key):
    # Delays on every reply must not trip anything: slow is not dead.
    with injected("reply.delay:seconds=0.01,times=*"):
        fingerprint, router = run_supervised(router_key)
    stats = router.batch_executor.stats
    assert fingerprint == serial_reference(router_key)
    assert stats.worker_errors == 0
    assert stats.worker_replacements == 0


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_matrix_dropped_pipe(router_key):
    # Worker 1 closes its pipe without replying (bare EOF mid-batch).
    with injected("pipe.drop:worker=1"):
        fingerprint, router = run_supervised(router_key)
    stats = router.batch_executor.stats
    assert fingerprint == serial_reference(router_key)
    assert stats.worker_errors >= 1
    assert stats.worker_replacements >= 1
    assert stats.retries >= 1


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_matrix_transient_compute_error(router_key):
    # Each worker's first speculative compute raises; the workers stay
    # alive and in sync (they replied), so the retry runs on the same
    # pool and succeeds with no replacements.
    with injected("compute.error"):
        fingerprint, router = run_supervised(router_key)
    stats = router.batch_executor.stats
    assert fingerprint == serial_reference(router_key)
    assert stats.worker_errors >= 1
    assert stats.retries >= 1
    assert stats.worker_replacements == 0
    assert stats.demotions == 0


@needs_fork
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_matrix_torn_final_checkpoint_resume(router_key, tmp_path):
    # A campaign's final checkpoint lands torn (power loss mid-write).
    # Resume must fall back to the retained previous generation, finish
    # the campaign and still produce the uninterrupted run's solution,
    # with the fallback recorded in the campaign's failure history.
    design = fig1_dense_cluster()
    path = tmp_path / "ckpt.json"
    kwargs = {} if router_key == "maze" else {"use_global_router": False}
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
    # fallback, so a *resumed* campaign keeps its failure history.
    document = load_checkpoint_document(path)
    assert document["campaign"]["done"] is True
    assert document["campaign"]["executor_stats"]["checkpoint_fallbacks"] == 1


@needs_fork
def test_ladder_demotes_to_serial_floor(monkeypatch):
    # Unbounded compute errors on the pool: the executor must demote to
    # serial, which cannot fail -- and the run stays bit-identical.
    monkeypatch.setenv("REPRO_BATCH_RETRIES", "0")
    monkeypatch.setenv("REPRO_DEMOTE_AFTER", "1")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    with injected("compute.error:times=*"):
        fingerprint, router = run_supervised("color-state")
    executor = router.batch_executor
    assert fingerprint == serial_reference("color-state")
    assert executor.active_backend == "serial"
    assert executor.stats.demotions == 1  # pool -> serial
    assert executor.stats.parallel_batches == 0
    assert executor.stats.worker_errors >= 1


@needs_fork
def test_pool_failure_message_names_every_worker():
    # Satellite (a), end to end: when both workers fail one batch, the
    # raised WorkerFailure carries *both* worker indices and cursors.
    router = make_router("color-state", sparse_case(), **POOL_KW)
    executor = router.batch_executor
    pool = executor._ensure_pool()
    assert pool is not None
    try:
        names = [net.name for net in router.design.nets[:2]]
        with injected("compute.error:times=*"):
            with pytest.raises(WorkerFailure) as excinfo:
                pool.compute(names)
        text = str(excinfo.value)
        assert "worker 0" in text and "worker 1" in text
        assert text.count("@cursor") == 2
        assert excinfo.value.kind == "compute"
        assert excinfo.value.retryable
        assert len(pool.workers) == 2  # compute errors keep the workers
    finally:
        executor.close()
