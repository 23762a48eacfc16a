"""Disjoint-batch scheduling and batched execution of net routing.

With single-net searches and per-net re-validation cheap, this package
converts the remaining serial outer loop into batched throughput:

* :class:`BatchScheduler` partitions a pending-net queue into batches of
  nets whose interaction-radius-expanded windows are pairwise disjoint
  (each batch the maximal disjoint prefix of the queue, so the batches
  concatenate back to the sequential order);
* :class:`BatchExecutor` routes each batch through a deterministic serial
  backend (bit-identical to the sequential loop -- the parity oracle) or
  the speculative ``pool`` backend that routes the whole batch against a
  frozen snapshot with per-worker search engines, validates every
  result's explored region against batch-mates' committed deltas, replays
  accepted commit logs (plain :mod:`repro.journal` ops) through the grid's
  ``apply_op`` choke point (so the attached journal and the incremental
  DRC/conflict checkers see the merged batch) and falls back to live
  routing when regions touch.  The pool's workers fork **once** and
  re-synchronise between batches by replaying the grid journal suffix
  past their cursor -- no re-fork, no snapshot serialisation.

The rip-up loop all three routers share (:class:`repro.campaign.CampaignRouter`)
wires in through the routers' ``parallelism`` / ``batch_backend`` /
``min_fork_batch`` constructor arguments; batches hold at most
``4 * parallelism`` nets.

Execution is **supervised** (:mod:`repro.sched.supervisor`): per-batch
wall-clock deadlines, pool-worker heartbeats, classified failures with
bounded exponential-backoff retry and single-worker replacement, and a
graceful-degradation ladder (pool -> serial) that demotes the backend
after consecutive failures -- serial being the always-correct floor,
every recovery path stays bit-identical to the fault-free sequential run.
A host without the ``fork`` start method runs serial from the start.
"""

from repro.sched.batches import BatchScheduler, CellWindow, windows_overlap
from repro.sched.commit import GridSink, RecordingSink, apply_route_ops
from repro.sched.executor import (
    BACKENDS,
    BatchExecutor,
    ExecutorStats,
    PersistentWorkerPool,
    make_batch_executor,
)
from repro.sched.supervisor import (
    FailureDetail,
    SupervisorConfig,
    WorkerFailure,
    classify_exception,
    classify_worker_payload,
    degradation_ladder,
)

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "BatchScheduler",
    "CellWindow",
    "ExecutorStats",
    "FailureDetail",
    "GridSink",
    "PersistentWorkerPool",
    "SupervisorConfig",
    "WorkerFailure",
    "classify_exception",
    "classify_worker_payload",
    "degradation_ladder",
    "make_batch_executor",
    "RecordingSink",
    "apply_route_ops",
    "windows_overlap",
]
