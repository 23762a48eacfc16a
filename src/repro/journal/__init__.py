"""Event-sourced journal of :class:`~repro.grid.RoutingGrid` mutations.

The rip-up-and-reroute loops are long campaigns of small grid mutations:
occupancy commits, releases, mask (re)colorings, history bumps and decays.
This package makes that mutation stream a first-class, in-memory
subsystem:

* :mod:`repro.journal.ops` defines the **op model** -- every grid mutation
  is one plain tuple of ints/floats/strings (pickle-friendly, crosses
  process boundaries with no custom reducers);
* :class:`MutationJournal` is the **ordered log**: the grid appends every
  op it applies (see :meth:`RoutingGrid.apply_op` and
  :meth:`RoutingGrid.commit_route`) to its attached journal, and replaying the log onto a fresh
  grid over the same design reproduces the live grid's occupancy, color,
  pressure and history buffers **bit-identically**;
* :func:`replay_ops` performs that replay, and **cursors** (plain op
  counts) let a consumer catch up by replaying only the suffix it has not
  seen -- the mechanism behind the persistent ``pool`` backend of
  :class:`repro.sched.BatchExecutor`, whose workers fork once and
  re-synchronise between batches by suffix replay instead of re-forking.

Campaign checkpoints do not use the journal: they hold a
:meth:`RoutingGrid.snapshot_state` document (:mod:`repro.io.checkpoint_io`).
"""

from repro.journal.log import MutationJournal, replay_ops
from repro.journal.ops import (
    OP_BLOCK_RECT,
    OP_BLOCK_VERTEX,
    OP_COLOR,
    OP_DECAY,
    OP_HISTORY,
    OP_INTERN,
    OP_OCCUPY,
    OP_RELEASE,
    OP_RESET,
    Op,
)

__all__ = [
    "MutationJournal",
    "Op",
    "OP_BLOCK_RECT",
    "OP_BLOCK_VERTEX",
    "OP_COLOR",
    "OP_DECAY",
    "OP_HISTORY",
    "OP_INTERN",
    "OP_OCCUPY",
    "OP_RELEASE",
    "OP_RESET",
    "replay_ops",
]
