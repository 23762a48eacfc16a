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
  result's explored region against batch-mates' committed deltas, commits
  accepted route logs through the grid's route commit, as serial routing
  does, and falls back to live routing when regions touch.  A pool lives
  for one :meth:`BatchExecutor.route_nets` call (one routing pass): its
  workers fork lazily, catch up before each batch by committing the route
  logs the parent committed since, and are closed when the pass ends.

The rip-up loop all three routers share (:class:`repro.campaign.CampaignRouter`)
wires in through the routers' ``parallelism`` / ``batch_backend`` /
``min_fork_batch`` constructor arguments; batches hold at most
``4 * parallelism`` nets.

Pool failures follow one rule: a pool batch that fails in any way (an
error reply, a closed pipe, a failed send or a missed batch deadline)
closes the pool and reroutes the batch serially, and the executor stays
on serial from then on.  Nothing is committed before every reply is in,
so the result is bit-identical to the serial run.  A host without the
``fork`` start method runs serial from the start.
"""

from repro.sched.batches import BatchScheduler, CellWindow, windows_overlap
from repro.sched.commit import GridSink, apply_route_ops, route_log
from repro.sched.executor import (
    BACKENDS,
    BatchExecutor,
    ExecutorStats,
    WorkerPool,
    make_batch_executor,
)

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "BatchScheduler",
    "CellWindow",
    "ExecutorStats",
    "GridSink",
    "make_batch_executor",
    "apply_route_ops",
    "route_log",
    "windows_overlap",
    "WorkerPool",
]
