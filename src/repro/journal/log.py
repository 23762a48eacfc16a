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
batches.

Snapshot folding
----------------

A journal grows with the campaign, so a plain :meth:`~MutationJournal
.compact` trades memory for replayability: the dropped prefix can never
rebuild a fresh grid again.  :meth:`MutationJournal.fold` closes that gap --
it pairs the compaction with a **snapshot** (an opaque, serialisable
document, in practice :meth:`RoutingGrid.snapshot_state` output taken at
the fold cursor), so the journal becomes *snapshot + suffix*: bootstrap a
fresh grid by restoring the snapshot and replaying only the suffix.  That
is the checkpoint-v2 representation -- resume time and document size are
bounded by the snapshot plus the ops since the last fold, not by campaign
age.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence

from repro.journal.ops import Op, validate_op


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
    grid -- replay goes through :func:`replay_ops` so the grid's single
    choke point stays the only mutation path.
    """

    __slots__ = ("ops", "_base", "snapshot", "_snapshot_cursor")

    def __init__(
        self,
        ops: Optional[Sequence[Op]] = None,
        *,
        base: int = 0,
        snapshot: Optional[Any] = None,
    ) -> None:
        self.ops: List[Op] = [validate_op(tuple(op)) for op in ops] if ops else []
        # Cursor of self.ops[0]: non-zero once compact() has dropped a
        # fully-consumed prefix.  Cursors stay absolute across compaction.
        if base < 0:
            raise ValueError(f"journal base must be >= 0, got {base}")
        if base and snapshot is None:
            raise ValueError(
                "a journal starting at a non-zero base needs the fold "
                "snapshot describing the compacted prefix"
            )
        self._base = base
        # Folded-prefix snapshot: the grid state document equivalent to
        # replaying ops [0, _snapshot_cursor).  None until fold() runs.
        self.snapshot: Optional[Any] = snapshot
        self._snapshot_cursor = base if snapshot is not None else 0

    # -- recording ----------------------------------------------------------

    def record(self, op: Op) -> None:
        """Append one op (called by ``RoutingGrid.apply_op``)."""
        self.ops.append(op)

    # -- cursors ------------------------------------------------------------

    @property
    def base(self) -> int:
        """Return the cursor of the oldest op still held (0 = complete log)."""
        return self._base

    @property
    def cursor(self) -> int:
        """Return the current end-of-log cursor (== number of ops recorded)."""
        return self._base + len(self.ops)

    @property
    def snapshot_cursor(self) -> int:
        """Return the cursor the fold :attr:`snapshot` corresponds to.

        The snapshot is equivalent to replaying ops ``[0, snapshot_cursor)``
        onto a fresh grid; ``0`` when no fold has happened yet.
        """
        return self._snapshot_cursor

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
        pool; campaign journals destined for checkpoints are never
        compacted).  Bounds the memory of long journal-fed campaigns.
        """
        keep = min(max(before_cursor, self._base), self.cursor)
        dropped = keep - self._base
        if dropped:
            del self.ops[:dropped]
            self._base = keep
        return dropped

    def fold(self, snapshot: Any, cursor: Optional[int] = None) -> int:
        """Fold the prefix before *cursor* into *snapshot*; return ops dropped.

        *snapshot* must describe the grid state after applying ops
        ``[0, cursor)`` -- in practice :meth:`RoutingGrid.snapshot_state`
        taken when the journal head was at *cursor* (the default: the
        current head).  Afterwards the journal is *snapshot + suffix*:
        unlike a plain :meth:`compact` it can still :meth:`bootstrap` a
        fresh grid and still serialises through
        :func:`repro.io.journal_io.journal_to_dict`, while memory and
        replay time stay bounded by the suffix length.  The same consumer
        rule as :meth:`compact` applies: every live cursor must already be
        at or past *cursor*.
        """
        if cursor is None:
            cursor = self.cursor
        if not self._base <= cursor <= self.cursor:
            raise ValueError(
                f"fold cursor must lie in [{self._base}, {self.cursor}], got {cursor}"
            )
        self.snapshot = snapshot
        self._snapshot_cursor = cursor
        return self.compact(cursor)

    # -- replay -------------------------------------------------------------

    def replay_onto(self, grid, start: int = 0) -> int:
        """Replay ops from cursor *start* onto *grid*; return the count."""
        return replay_ops(grid, self.suffix(start))

    def bootstrap(self, grid) -> int:
        """Bring a **fresh** *grid* up to this journal's head; return ops replayed.

        For a complete log this is a plain full replay.  For a folded
        journal the grid is first restored from the fold snapshot
        (``grid.restore_state``) and only the suffix past it is replayed --
        the O(snapshot + suffix) bootstrap that checkpoint-v2 resume
        relies on.  The grid must start from the journal's base state (a
        freshly constructed grid over the same design) and must not have a
        journal attached yet (attach after, so the replayed ops are not
        re-recorded into this very journal).
        """
        if self.snapshot is not None:
            if self._snapshot_cursor < self._base:
                raise ValueError(
                    "journal was compacted past its fold snapshot "
                    f"(snapshot at {self._snapshot_cursor}, base {self._base}); "
                    "it can no longer bootstrap a fresh grid"
                )
            grid.restore_state(self.snapshot)
            return replay_ops(grid, self.suffix(self._snapshot_cursor))
        if self._base:
            raise ValueError(
                f"journal was compacted (base {self._base}) without a fold "
                "snapshot; it can no longer bootstrap a fresh grid"
            )
        return self.replay_onto(grid, 0)

    # -- conveniences -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MutationJournal(ops={len(self.ops)}, base={self._base})"
