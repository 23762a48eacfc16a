"""The canonical op model of :class:`~repro.grid.RoutingGrid` mutations.

Every mutation of searchable grid state is one **op**: a plain tuple whose
first element is the kind tag and whose remaining elements are ints, floats
or strings.  Ops are what :meth:`RoutingGrid.apply_op` -- the single
mutation choke point -- consumes, what the attached
:class:`~repro.journal.MutationJournal` records, what the
:mod:`repro.sched` commit sinks log, and what :mod:`repro.io.journal_io`
serialises.  Keeping them flat tuples means they pickle across process
boundaries (the persistent worker pool ships journal suffixes through
pipes) and round-trip through JSON without custom encoders.

Op shapes (vertex addresses are flat indices, see
:meth:`RoutingGrid.index_of`):

=================  =====================================================
``("intern", name)``                intern *name*, assigning the next net id
``("occupy", net_id, index)``       net *net_id* places metal at *index*
``("release", net_id)``             rip up every vertex of *net_id*
``("color", net_id, index, color)`` mask-color *net_id*'s metal at *index*
``("history", index, amount)``      add *amount* history cost at *index*
``("decay", factor)``               multiply all history entries by *factor*
``("block_vertex", index)``         hard-block one vertex
``("block_rect", layer, xlo, ylo, xhi, yhi, name)``  block a rectangle
``("reset",)``                      drop all routing state (keep blockages)
=================  =====================================================

``intern`` ops exist so replay assigns net ids in the exact order the live
grid did: the occupancy buffer stores interned ids, so bit-identical replay
requires bit-identical interning.  The grid emits one the first time a net
name is seen (after construction; construction-time interning is replayed
by constructing the fresh grid from the same design).

Ops are also the *suffix* half of a folded journal: once
:meth:`MutationJournal.fold` compacts the log prefix into a
:meth:`RoutingGrid.snapshot_state` document, bootstrapping a replica is
snapshot restore plus replay of exactly these tuples past the fold cursor
-- the O(grid + suffix) path checkpoint-v2 resume rides on.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

#: One grid mutation: ``(kind, *payload)`` with int/float/str payloads only.
Op = Tuple

OP_INTERN = "intern"
OP_OCCUPY = "occupy"
OP_RELEASE = "release"
OP_COLOR = "color"
OP_HISTORY = "history"
OP_DECAY = "decay"
OP_BLOCK_VERTEX = "block_vertex"
OP_BLOCK_RECT = "block_rect"
OP_RESET = "reset"

#: Every op kind with its exact tuple arity (tag included).
OP_KINDS = {
    OP_INTERN: 2,
    OP_OCCUPY: 3,
    OP_RELEASE: 2,
    OP_COLOR: 4,
    OP_HISTORY: 3,
    OP_DECAY: 2,
    OP_BLOCK_VERTEX: 2,
    OP_BLOCK_RECT: 7,
    OP_RESET: 1,
}


def validate_op(op: Op) -> Op:
    """Return *op* unchanged after checking its kind tag and arity."""
    if not op or op[0] not in OP_KINDS:
        raise ValueError(f"unknown journal op {op!r}")
    if len(op) != OP_KINDS[op[0]]:
        raise ValueError(
            f"malformed {op[0]!r} op {op!r}: expected arity {OP_KINDS[op[0]]}"
        )
    return op


def ops_to_jsonable(ops: Iterable[Op]) -> List[list]:
    """Return *ops* as JSON-serialisable lists (tuples do not survive JSON)."""
    return [list(op) for op in ops]


def ops_from_jsonable(data: Sequence[Sequence]) -> List[Op]:
    """Rebuild the op tuples from :func:`ops_to_jsonable` output.

    Each op is validated, so a truncated or hand-edited journal file fails
    loudly at load time instead of silently desynchronising a replay.
    """
    return [validate_op(tuple(entry)) for entry in data]
