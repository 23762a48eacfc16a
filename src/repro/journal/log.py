"""The ordered mutation log and its replay/cursor machinery.

A :class:`MutationJournal` is deliberately dumb: an append-only list of op
tuples plus cursor arithmetic.  All semantics live in
:meth:`RoutingGrid.apply_op`, which both *produces* the stream (appending
every op it applies to the attached journal) and *consumes* it on replay --
so a replayed grid runs the exact same code path, in the same order, as the
live grid did, and ends up with bit-identical occupancy, color, pressure
and history buffers.

Cursors are plain op counts.  ``journal.suffix(cursor)`` is everything a
lagging replica has not seen; replaying it and advancing the cursor to
``journal.cursor`` re-synchronises the replica.  The persistent worker
pool of :class:`repro.sched.BatchExecutor` runs exactly this loop between
batches, and :meth:`MutationJournal.compact` drops the prefix every worker
has consumed.  The journal lives only in memory: campaign checkpoints hold
a :meth:`RoutingGrid.snapshot_state` document instead (see
:mod:`repro.io.checkpoint_io`).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.journal.ops import Op


def replay_ops(grid, ops: Sequence[Op]) -> int:
    """Apply *ops*, in order, through ``grid.apply_op``; return the count.

    The target grid must start from the same base state the ops were
    recorded against (for a full journal: a freshly constructed grid over
    the same design).  If the grid has its own journal attached the
    replayed ops are re-recorded there, so a replica's journal stays a
    faithful copy of the stream it consumed.
    """
    apply_op = grid.apply_op
    count = 0
    for op in ops:
        apply_op(op)
        count += 1
    return count


class MutationJournal:
    """Append-only, ordered log of :class:`RoutingGrid` mutation ops.

    Attach with :meth:`RoutingGrid.attach_journal`; from then on every op
    the grid applies is recorded here.  The journal itself never touches a
    grid -- replay goes through :func:`replay_ops`, one
    :meth:`RoutingGrid.apply_op` per op.
    """

    __slots__ = ("ops", "_base")

    def __init__(self) -> None:
        self.ops: List[Op] = []
        # Cursor of self.ops[0]: non-zero once compact() has dropped a
        # fully-consumed prefix.  Cursors stay absolute across compaction.
        self._base = 0

    # -- recording ----------------------------------------------------------

    def record(self, op: Op) -> None:
        """Append one op (called by ``RoutingGrid.apply_op``)."""
        self.ops.append(op)

    def extend(self, ops: Sequence[Op]) -> None:
        """Append *ops* in order (called by ``RoutingGrid.commit_route``)."""
        self.ops.extend(ops)

    # -- cursors ------------------------------------------------------------

    @property
    def base(self) -> int:
        """Return the cursor of the oldest op still held (0 = complete log)."""
        return self._base

    @property
    def cursor(self) -> int:
        """Return the current end-of-log cursor (== number of ops recorded)."""
        return self._base + len(self.ops)

    def suffix(self, cursor: int) -> List[Op]:
        """Return every op recorded at or after *cursor* (oldest first).

        Raises on cursors outside ``[base, cursor]``: a cursor below the
        base addresses compacted-away ops, and a cursor **past the head**
        (e.g. a stale worker cursor surviving a discarded pool) would
        silently report "nothing to replay" while the replica is actually
        desynchronised -- both are consumer bugs that must fail loudly.
        """
        if cursor < self._base:
            raise ValueError(
                f"journal cursor must be >= base {self._base} "
                f"(ops before it were compacted away), got {cursor}"
            )
        if cursor > self.cursor:
            raise ValueError(
                f"journal cursor must be <= head {self.cursor} "
                f"(a future cursor means the consumer is desynchronised), "
                f"got {cursor}"
            )
        return self.ops[cursor - self._base :]

    def compact(self, before_cursor: int) -> int:
        """Drop ops before *before_cursor*; return how many were dropped.

        Safe only when every consumer's cursor is already at or past
        *before_cursor* -- afterwards :meth:`suffix` refuses older cursors
        and the journal can no longer replay a fresh grid from scratch
        (the executor compacts only the journal it owns for its worker
        pool).  Bounds the memory of long journal-fed campaigns.
        """
        keep = min(max(before_cursor, self._base), self.cursor)
        dropped = keep - self._base
        if dropped:
            del self.ops[:dropped]
            self._base = keep
        return dropped

    # -- conveniences -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MutationJournal(ops={len(self.ops)}, base={self._base})"
