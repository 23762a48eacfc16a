"""The canonical op model of :class:`~repro.grid.RoutingGrid` mutations.

Every mutation of searchable grid state is one **op**: a plain tuple whose
first element is the kind tag and whose remaining elements are ints, floats
or strings.  Ops are what :meth:`RoutingGrid.apply_op` consumes (and
:meth:`RoutingGrid.commit_route`, a whole route's ``occupy`` / ``color``
ops at once), what the attached :class:`~repro.journal.MutationJournal`
records and what the :mod:`repro.sched` commit sinks log.  Keeping them flat tuples means they
pickle across process boundaries with no custom reducers: the persistent
worker pool ships journal suffixes through pipes.  Ops never leave the
process any other way, and ``apply_op`` rejects an unknown kind.

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
``("block_rect", layer, xlo, ylo, xhi, yhi)``  block a rectangle
``("reset",)``                      drop all routing state (keep blockages)
=================  =====================================================

``intern`` ops exist so replay assigns net ids in the exact order the live
grid did: the occupancy buffer stores interned ids, so bit-identical replay
requires bit-identical interning.  The grid emits one the first time a net
name is seen (after construction; construction-time interning is replayed
by constructing the fresh grid from the same design).
"""

from __future__ import annotations

from typing import Tuple

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
