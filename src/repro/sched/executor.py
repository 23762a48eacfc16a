"""Batch execution of disjoint net batches over a shared routing grid.

The executor routes the batches a :class:`~repro.sched.batches.BatchScheduler`
plans, through one of two backends:

``"serial"`` (default, the parity oracle)
    Routes every batch member live, as the router's own ``route_net``
    does: ``compute_route``, then one route commit of its route log
    (:func:`~repro.sched.commit.route_log`) per net.  The scheduler's
    batches concatenate back to the input order, so this *is* the
    sequential loop and results are bit-identical by construction.

``"pool"`` (speculative snapshot routing)
    All nets of a batch are routed concurrently against the grid state at
    batch start ("the snapshot"): workers call the router's
    ``compute_route`` (reads only) with their own search engine and reply
    with the route alone; the parent builds each route's log.

    A pool lives for one :meth:`BatchExecutor.route_nets` call -- one
    routing pass.  Workers fork lazily, when a batch first needs them, and
    are closed when the call returns, so rip-up, history updates and
    keep-best restores between passes never meet a live worker: the next
    pass forks from the updated parent.  Just before a pass's first fork
    the parent builds the grid's lazy neighbour table and guide slot map,
    so every worker inherits them.  Within a pass the grid changes only
    by route commits, and once the pool exists the executor keeps every
    route log it commits (accepted speculative logs, live fallbacks,
    serial batches).  Before each batch a worker receives the logs it has
    not applied yet and commits them through ``apply_route_ops`` -- the
    same :meth:`RoutingGrid.commit_route` the parent ran -- so a caught-up
    worker's grid is byte-for-byte the parent's.

    Commits are then applied **serially in batch order** with a speculative
    validation step: a snapshot-computed route is exact iff the search
    never read a vertex whose state an earlier batch-mate's commit could
    have changed.  Every read of mutable grid state happens at a vertex the
    search labelled (:meth:`CoreResult.labelled_planar_box`), and a commit
    influences at most its own vertices plus the interaction reach around
    them (color pressure), so the executor accepts the speculative route
    when the explored box is disjoint from every committed influence box --
    and otherwise **falls back to routing the net live**, which reproduces
    the sequential result exactly.  Accepted logs go through the same route
    commit as serial routing (:meth:`RoutingGrid.commit_route`), so the
    grid ends the same either way.

    A host without the ``fork`` start method settles on serial once, when
    the executor is built.

    **One failure rule.**  If a pool batch fails in any way -- a worker's
    ``("error", message)`` reply, a closed pipe, a failed send, or the batch
    deadline passing -- the executor counts one ``worker_errors``, closes
    the whole pool, switches ``active_backend`` to ``"serial"`` for the rest
    of its life and routes the batch serially.  Nothing is committed before
    every reply has arrived, so the result stays bit-identical to the
    serial run.

Every router computes a net's route against a grid that holds none of
the net's metal, in a worker or in the parent alike, so a worker's
snapshot route differs from the serial one only through batch-mates'
commits -- which the validation step rules out.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel import get_native_kernel
from repro.design import Net
from repro.grid import RoutingSolution
from repro.profiling import PhaseTimes
from repro.sched.batches import BatchScheduler, CellWindow, windows_overlap
from repro.sched.commit import CommitOp, apply_route_ops, route_log
from repro.utils.logging import get_logger

_LOG = get_logger("sched.executor")

#: Backends accepted by :class:`BatchExecutor`.
BACKENDS = ("serial", "pool")

#: Smallest batch worth starting pool workers for (constructor default).
DEFAULT_MIN_FORK_BATCH = 3

#: Wall-clock budget of one pool batch: ``BATCH_DEADLINE_BASE +
#: BATCH_DEADLINE_PER_NET * len(batch)`` seconds.  A worker that has not
#: replied by then is treated as hung, which fails the batch.
BATCH_DEADLINE_BASE = 60.0
BATCH_DEADLINE_PER_NET = 15.0


@dataclass
class ExecutorStats:
    """Counters describing one or more :meth:`BatchExecutor.route_nets` calls."""

    nets_routed: int = 0
    batches: int = 0
    parallel_batches: int = 0
    largest_batch: int = 0
    speculative_accepted: int = 0
    speculative_fallbacks: int = 0
    worker_errors: int = 0
    #: Processes forked over the executor's lifetime (pool backend: at
    #: most ``parallelism`` per routing pass).
    pool_forks: int = 0
    #: Route-log entries shipped to pool workers to catch up with the
    #: parent's commits.
    replayed_ops: int = 0
    #: Pool workers that ignored the shutdown message and had to be
    #: terminated/killed at close (hung-worker escalation).
    worker_kills: int = 0
    #: Pickled bytes shipped down worker pipes (catch-up logs and net names).
    suffix_bytes: int = 0
    #: Per-phase wall-clock accounting (plan/search/commit/check/ipc/
    #: checkpoint).  The owning router shares this record, so executor-side
    #: phases (plan, search, ipc, commit) and router-side phases (check,
    #: checkpoint) land in one place.  Appears in :meth:`as_dict` as the
    #: nested ``phase_seconds`` entry, which the campaign merge adds
    #: phase-by-phase.
    phases: PhaseTimes = field(default_factory=PhaseTimes)

    def as_dict(self) -> Dict[str, object]:
        """Return the counters as a plain dict (benchmark JSON friendly)."""
        return {
            "phase_seconds": self.phases.as_dict(),
            "nets_routed": self.nets_routed,
            "batches": self.batches,
            "parallel_batches": self.parallel_batches,
            "largest_batch": self.largest_batch,
            "speculative_accepted": self.speculative_accepted,
            "speculative_fallbacks": self.speculative_fallbacks,
            "worker_errors": self.worker_errors,
            "pool_forks": self.pool_forks,
            "replayed_ops": self.replayed_ops,
            "worker_kills": self.worker_kills,
            "suffix_bytes": self.suffix_bytes,
        }


class ExploredTracker:
    """Accumulates the planar bounding box of every vertex a net's searches
    labelled, via :attr:`SearchCore.on_result`."""

    __slots__ = ("plane_size", "num_rows", "node_stride", "box")

    def __init__(self, grid, node_stride: int = 1) -> None:
        self.plane_size = grid.plane_size
        self.num_rows = grid.num_rows
        self.node_stride = node_stride
        self.box: Optional[CellWindow] = None

    def __call__(self, result) -> None:
        box = result.labelled_planar_box(self.plane_size, self.num_rows, self.node_stride)
        if box is None:
            return
        if self.box is None:
            self.box = box
        else:
            mine = self.box
            self.box = (
                min(mine[0], box[0]),
                min(mine[1], box[1]),
                max(mine[2], box[2]),
                max(mine[3], box[3]),
            )


@dataclass
class SpeculativeRoute:
    """One worker's snapshot-computed result for a net."""

    route: object
    explored_box: Optional[CellWindow]


# -- pool-backend plumbing ---------------------------------------------------
#
# One-pass workers: each process forks holding the parent's grid state at
# fork time, then catches up before every batch by committing the route
# logs the parent committed since.  The router is published in a module
# global immediately before the fork, so the child is born holding it;
# afterwards only small messages -- (route logs, net names) down, (route,
# explored box) up -- cross the pipe.

_POOL_ROUTER: Optional[object] = None


def _pool_worker_main(conn) -> None:
    """Run a forked pool worker's serve loop until shutdown or pipe close.

    The worker inherits the parent's router (published in
    :data:`_POOL_ROUTER` just before the fork) and so starts with a grid
    byte-identical to the parent's at fork time.  Each batch gets exactly
    one reply: ``("ok", payload)`` or ``("error", message)``.
    """
    router = _POOL_ROUTER
    grid = router.grid
    design = router.design
    engine = router.make_search_engine()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            missed_logs, net_names = message
            try:
                for ops in missed_logs:
                    apply_route_ops(grid, ops)
                payload = []
                for name in net_names:
                    spec = _compute_speculative(router, design.net_by_name(name), engine)
                    payload.append((spec.route, spec.explored_box))
                reply = ("ok", payload)
            except Exception:
                reply = ("error", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


def _shutdown_workers(
    workers: Sequence["_PoolWorker"],
    join_timeout: float = 5.0,
    escalate_timeout: float = 1.0,
) -> int:
    """Join worker processes, escalating to terminate/kill on timeout.

    Returns how many workers had to be forcibly stopped.  A worker stuck in
    an uninterruptible loop (or one that ignores SIGTERM) must not outlive
    the executor -- a leaked process pins the forked grid memory and, under
    pytest, hangs the whole run at interpreter exit.
    """
    killed = 0
    for worker in workers:
        process = worker.process
        process.join(timeout=join_timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=escalate_timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=escalate_timeout)
            killed += 1
        worker.conn.close()
    return killed


class _PoolWorker:
    """One worker: its process, pipe and how many pass logs it has applied."""

    def __init__(self, process, conn, applied: int) -> None:
        self.process = process
        self.conn = conn
        self.applied = applied


class WorkerPool:
    """Forked worker processes for one routing pass, kept in sync by route logs.

    Workers fork **lazily**, as batches actually demand them, so a pass
    whose batches never grow past two nets only ever starts two workers.
    A worker inherits the parent's full state through ``fork`` itself, so
    it is born having applied every log committed so far.

    *logs* is the executor's list of the route logs committed during the
    pass, in commit order.  Before assigning a batch slice the pool ships
    each participating worker the logs past its count; a worker that sat
    out a batch simply receives more next time.

    Forks, shipped log entries and shipped bytes are counted straight into
    *stats* (the owning executor's record).
    """

    def __init__(
        self, router, size: int, stats: ExecutorStats, logs: List[List[CommitOp]]
    ) -> None:
        self.context = multiprocessing.get_context("fork")
        self.router = router
        self.size = max(1, size)
        self.stats = stats
        self.logs = logs
        self.workers: List[_PoolWorker] = []

    def __len__(self) -> int:
        return len(self.workers)

    def _start_worker(self) -> None:
        """Fork and register one worker holding the parent's current state."""
        global _POOL_ROUTER
        parent_conn, child_conn = self.context.Pipe()
        _POOL_ROUTER = self.router
        try:
            process = self.context.Process(
                target=_pool_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
        except Exception:
            parent_conn.close()
            child_conn.close()
            raise
        finally:
            _POOL_ROUTER = None
        child_conn.close()
        # Born in sync: the child holds the parent's state as of now.
        self.workers.append(_PoolWorker(process, parent_conn, len(self.logs)))
        self.stats.pool_forks += 1

    def _ensure_workers(self, needed: int) -> None:
        """Start workers up to ``min(needed, size)``, one at a time."""
        target = min(needed, self.size)
        while len(self.workers) < target:
            self._start_worker()

    def compute(self, net_names: Sequence[str], deadline: float) -> List[Tuple]:
        """Compute speculative routes for *net_names* across the workers.

        Nets are dealt round-robin over the workers actually needed; the
        result list is reassembled in input order, one ``(route,
        explored_box)`` tuple per net.

        Raises when the batch fails: a failed send, a closed pipe
        (``EOFError``), an ``("error", message)`` reply, or no reply within
        *deadline* seconds of the sends.  The pool is then out of step with
        the parent and must be closed.
        """
        self._ensure_workers(len(net_names))
        logs = self.logs
        stats = self.stats
        active = self.workers[: min(len(self.workers), len(net_names))]
        stride = len(active)
        for slot, worker in enumerate(active):
            missed = logs[worker.applied :]
            message = pickle.dumps((missed, list(net_names[slot::stride])))
            worker.conn.send_bytes(message)
            worker.applied = len(logs)
            stats.replayed_ops += sum(len(ops) for ops in missed)
            stats.suffix_bytes += len(message)
        deadline_at = time.monotonic() + deadline
        results: List[Optional[Tuple]] = [None] * len(net_names)
        for slot, worker in enumerate(active):
            # A dead worker's pipe reads as ready, and recv() then raises
            # EOFError; a reply already waiting is accepted even past the
            # deadline.
            if not worker.conn.poll(max(0.0, deadline_at - time.monotonic())):
                raise TimeoutError(f"pool worker missed the {deadline:.3g}s batch deadline")
            status, payload = worker.conn.recv()
            if status != "ok":
                raise RuntimeError(f"pool worker failed: {payload}")
            results[slot::stride] = payload
        return results

    def close(self, join_timeout: float = 5.0) -> int:
        """Shut every worker down (idempotent); return how many were killed.

        Cooperative shutdown first (the ``None`` message), then
        :func:`_shutdown_workers` joins with terminate/kill escalation so a
        hung worker cannot outlive the executor.
        """
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        killed = _shutdown_workers(self.workers, join_timeout=join_timeout)
        self.workers = []
        return killed


def _compute_speculative(router, net: Net, engine) -> SpeculativeRoute:
    """Route *net* against the current grid state without mutating it."""
    tracker = ExploredTracker(router.grid, getattr(engine, "node_stride", 1))
    core = getattr(engine, "core", None)
    if core is not None:
        core.on_result = tracker
    try:
        route = router.compute_route(net, engine=engine)
    finally:
        if core is not None:
            core.on_result = None
    return SpeculativeRoute(route=route, explored_box=tracker.box)


def make_batch_executor(
    router,
    parallelism: int = 1,
    backend: str = "serial",
    min_fork_batch: Optional[int] = None,
) -> Optional["BatchExecutor"]:
    """Build a router's executor from its constructor knobs.

    Batching engages when a knob leaves its default (``parallelism > 1``
    or a non-serial backend), with batches capped at ``4 * parallelism``
    nets; otherwise ``None`` is returned and the router keeps its plain
    sequential loop.
    """
    if parallelism <= 1 and backend == "serial":
        return None
    return BatchExecutor(
        router,
        backend=backend,
        parallelism=parallelism,
        min_fork_batch=(
            DEFAULT_MIN_FORK_BATCH if min_fork_batch is None else min_fork_batch
        ),
    )


class BatchExecutor:
    """Routes scheduler-planned batches for one router.

    Parameters
    ----------
    router:
        Any of the three routers; must expose ``grid``, ``design``,
        ``cost_model``, ``compute_route(net, engine=...)`` and
        ``make_search_engine()``.
    backend:
        ``"serial"`` (deterministic default) or ``"pool"`` (workers forked
        for one routing pass, caught up by the pass's route logs).  The
        first failed pool batch switches the executor to serial for good;
        without the ``fork`` start method it starts on serial.
    parallelism:
        Worker count for the pool (also the default scheduler batch cap
        when *scheduler* is not supplied).
    scheduler:
        Optional pre-configured :class:`BatchScheduler`; by default one
        capped at ``4 * parallelism`` nets per batch.
    min_fork_batch:
        Smallest batch worth starting pool workers for.  It applies only
        to pool *creation* -- once started, workers serve every parallel
        batch of the pass.
    """

    def __init__(
        self,
        router,
        backend: str = "serial",
        parallelism: int = 1,
        scheduler: Optional[BatchScheduler] = None,
        min_fork_batch: int = DEFAULT_MIN_FORK_BATCH,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown batch backend {backend!r}; expected one of {BACKENDS}")
        self.router = router
        self.backend = backend
        self.parallelism = max(1, parallelism)
        self.scheduler = scheduler if scheduler is not None else BatchScheduler(
            router.grid, max_batch=4 * self.parallelism
        )
        self.min_fork_batch = max(2, min_fork_batch)
        self.stats = ExecutorStats()
        # `backend` stays the configured tier; `active_backend` is the one
        # in use, which drops to serial without fork or after a failed
        # pool batch.
        fork_ok = "fork" in multiprocessing.get_all_start_methods()
        self.active_backend = backend if fork_ok else "serial"
        # Influence reach: a committed vertex can change costs at most this
        # many cells away (color-pressure spread at the interaction radius).
        grid = router.grid
        self._influence_reach = grid.interaction_reach_cells(grid.interaction_radius())
        self._plane_size = grid.plane_size
        self._num_rows = grid.num_rows
        # The current pass's worker pool and the route logs committed
        # since it was created, in commit order.
        self._pool: Optional[WorkerPool] = None
        self._logs: List[List[CommitOp]] = []
        if self.active_backend == "pool":
            # Warm the native kernel in the parent before any worker
            # exists: forked workers inherit the mapped .so through fork --
            # no per-worker build attempt, no N compilers racing on first
            # use.  A no-op when the tier is gated off or the extension
            # cannot be built.
            get_native_kernel()

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release any worker pool (idempotent).

        :meth:`route_nets` already closes its pool when the pass ends.
        """
        self._discard_pool()

    def route_nets(self, nets: Sequence[Net], solution: RoutingSolution) -> None:
        """Route *nets* batch by batch, adding every route to *solution*.

        The scheduler plans the batches; each batch is routed with the
        configured backend and committed in batch order, so the overall
        commit order is deterministic for a given plan.  The call is one
        routing pass: pool workers started during it are closed before it
        returns.
        """
        nets = list(nets)
        if not nets:
            return
        grid = self.router.grid
        # Pre-intern every scheduled net before any worker forks, so the
        # workers inherit the ids the parent's route logs carry.
        for net in nets:
            grid.net_id(net.name)
        plan_started = time.perf_counter()
        batches = self.scheduler.plan(nets)
        self.stats.phases.add("plan", time.perf_counter() - plan_started)
        try:
            for batch in batches:
                self.stats.batches += 1
                self.stats.nets_routed += len(batch)
                self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
                if not self._run_batch_parallel(batch, solution):
                    self._run_batch_serial(batch, solution)
        finally:
            self._discard_pool()
            self._logs = []

    # ------------------------------------------------------------------

    def _commit(self, ops: List[CommitOp]) -> None:
        """Apply one route log to the grid and keep it for the pass's workers.

        Workers fork holding every earlier commit, so a log is kept only
        once the pool exists.
        """
        apply_route_ops(self.router.grid, ops)
        if self._pool is not None:
            self._logs.append(ops)

    def _route_live(self, net: Net):
        """Route *net* against the live grid and commit it, as ``route_net`` does."""
        route = self.router.compute_route(net)
        self._commit(route_log(self.router.grid, route))
        return route

    def _run_batch_serial(self, batch: Sequence[Net], solution: RoutingSolution) -> None:
        started = time.perf_counter()
        for net in batch:
            solution.add_route(self._route_live(net))
        self.stats.phases.add("search", time.perf_counter() - started)

    def _run_batch_parallel(
        self, batch: Sequence[Net], solution: RoutingSolution
    ) -> bool:
        """Try the pool on *batch*.

        Returns ``True`` when the batch was computed and committed, or
        ``False`` to let the caller route it serially instead.  A failed
        pool batch closes the pool and leaves the executor on serial for
        good; nothing was committed, so the serial reroute is bit-identical
        to a run that never used the pool.
        """
        if self.active_backend == "serial" or len(batch) < 2:
            return False
        if self._pool is None and len(batch) < self.min_fork_batch:
            # Don't pay the worker start for a pass of tiny batches; once
            # the pool exists it serves every parallel batch of the pass.
            return False
        # Pool batches spend their wall time in worker traffic (log
        # shipping + result receive): account them as ipc.
        compute_started = time.perf_counter()
        try:
            results = self._compute_batch_pooled(batch)
        except Exception as exc:
            _LOG.warning("pool batch failed, routing serially from now on: %s", exc)
            self.stats.worker_errors += 1
            self.active_backend = "serial"
            # Surviving workers get the shutdown message; a hung one is
            # terminated after a short join instead of the close-time wait.
            self._discard_pool(join_timeout=0.2)
            return False
        finally:
            self.stats.phases.add("ipc", time.perf_counter() - compute_started)
        self.stats.parallel_batches += 1
        self._commit_batch(batch, results, solution)
        return True

    # -- pool backend -----------------------------------------------------------

    def _discard_pool(self, join_timeout: float = 5.0) -> None:
        if self._pool is not None:
            self.stats.worker_kills += self._pool.close(join_timeout=join_timeout)
            self._pool = None

    def _compute_batch_pooled(self, batch: Sequence[Net]) -> List[SpeculativeRoute]:
        if self._pool is None:
            # Build the grid's lazy lookup tables here, before the first
            # fork: every worker inherits them through fork instead of
            # building its own, and the parent's live fallbacks reuse them.
            self.router.grid.neighbor_table()
            self.router.cost_model.guide_slot_map()
            self._pool = WorkerPool(self.router, self.parallelism, self.stats, self._logs)
        deadline = BATCH_DEADLINE_BASE + BATCH_DEADLINE_PER_NET * len(batch)
        raw = self._pool.compute([net.name for net in batch], deadline)
        return [SpeculativeRoute(route=route, explored_box=box) for route, box in raw]

    # -- validation + commit --------------------------------------------------

    def _commit_batch(
        self,
        batch: Sequence[Net],
        results: Sequence[SpeculativeRoute],
        solution: RoutingSolution,
    ) -> None:
        grid = self.router.grid
        committed: List[CellWindow] = []
        started = time.perf_counter()
        fallback_seconds = 0.0
        for net, spec in zip(batch, results):
            ops = route_log(grid, spec.route)
            if self._speculation_valid(spec.explored_box, ops, committed):
                self.stats.speculative_accepted += 1
                self._commit(ops)
                route = spec.route
                influence = self._ops_influence_box(ops)
            else:
                self.stats.speculative_fallbacks += 1
                fallback_started = time.perf_counter()
                route = self._route_live(net)
                fallback_seconds += time.perf_counter() - fallback_started
                influence = self._nodes_influence_box(route.nodes)
            solution.add_route(route)
            if influence is not None:
                committed.append(influence)
        # Live-reroute fallbacks are search work; the remainder of the wall
        # time (validation + op application) is the commit phase proper.
        self.stats.phases.add("search", fallback_seconds)
        self.stats.phases.add(
            "commit", time.perf_counter() - started - fallback_seconds
        )

    def _speculation_valid(
        self,
        box: Optional[CellWindow],
        ops: Sequence[CommitOp],
        committed: Sequence[CellWindow],
    ) -> bool:
        """Return ``True`` when a snapshot route is provably still exact.

        *box* is the route's explored box and *ops* its route log.  Sound
        acceptance test: the searches read mutable state only at labelled
        vertices, and earlier commits influence only their own influence
        boxes -- disjointness means the worker saw exactly the state a live
        (sequential) computation would have seen.
        """
        if box is None:
            # No search ran: the result depends only on immutable state
            # (pin access over static blockages) unless it commits metal.
            return not ops
        return not any(windows_overlap(box, other) for other in committed)

    def _ops_influence_box(self, ops: Sequence[CommitOp]) -> Optional[CellWindow]:
        # Route-log entries address vertices by flat index (op[2]).
        return self._nodes_influence_box(op[2] for op in ops)

    def _nodes_influence_box(self, nodes) -> Optional[CellWindow]:
        # Decode the planar cell of each flat index in place of building
        # GridPoints.
        rows = self._num_rows
        plane = self._plane_size
        return self._influence_box(divmod(node % plane, rows) for node in nodes)

    def _influence_box(self, cells) -> Optional[CellWindow]:
        """Return the planar box the given commits can influence, expanded
        by the interaction reach (color pressure spreads that far)."""
        col_lo = row_lo = None
        col_hi = row_hi = None
        for col, row in cells:
            if col_lo is None:
                col_lo = col_hi = col
                row_lo = row_hi = row
                continue
            if col < col_lo:
                col_lo = col
            elif col > col_hi:
                col_hi = col
            if row < row_lo:
                row_lo = row
            elif row > row_hi:
                row_hi = row
        if col_lo is None:
            return None
        reach = self._influence_reach
        return (col_lo - reach, row_lo - reach, col_hi + reach, row_hi + reach)
