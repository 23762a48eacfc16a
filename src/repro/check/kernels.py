"""Tiered neighborhood scan of the incremental conflict checker.

The hot loop of :class:`~repro.check.IncrementalConflictChecker` finds a
dirty net's candidate partners: for every flat vertex index of its
features, probe every planar
:meth:`~repro.grid.RoutingGrid.track_offsets` offset against an occupancy
mirror and do real work only for neighbors held by *another* net.  The
overwhelming majority of probes miss (empty cell, or the net's own metal),
so :func:`scan_hits` filters them in bulk:

``native``
    ``repro.native._checkwork.scan_hits`` runs the whole double loop in C
    over the caller's flat buffers (GIL released).
``python``
    the same double loop in Python.

The kernel reads an offset table as three ``array('q')`` columns, which
:func:`offset_buffers` builds once per table.  Both tiers return the
surviving ``(source, neighbor)`` pairs in the same i-major order, and the
checker's per-hit Python logic post-processes them, so both tiers produce
identical reports -- the contract ``tests/test_check_kernels.py`` checks
against a brute-force loop and the full-scan oracle.

The *owner* mirror is an ``array('q')`` the checker maintains
incrementally alongside its occupancy dict: ``0`` = empty, a positive
interned net id = single occupant, ``-1`` = multiple occupants (the scan
always reports those; the caller consults the exact dict).  Passing the
scanned net's own id as *self_id* drops same-net probes in the kernel.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Sequence, Tuple

from repro import accel

#: A surviving probe: (source flat index, neighbor flat index).
Hit = Tuple[int, int]

#: An offset table as the kernel reads it: ``(dcols, drows, deltas)``.
OffsetBuffers = Tuple[array, array, array]

# Staging buffers for the native kernel's output, grown geometrically; the
# hit pairs are copied to Python lists before returning, so reuse across
# calls is safe.
_out_src = array("q")
_out_dst = array("q")


def offset_buffers(offsets: Sequence[Tuple[int, int, int]]) -> OffsetBuffers:
    """Return the ``(dcols, drows, deltas)`` ``array('q')`` columns of *offsets*."""
    return (
        array("q", [dcol for dcol, _drow, _delta in offsets]),
        array("q", [drow for _dcol, drow, _delta in offsets]),
        array("q", [delta for _dcol, _drow, delta in offsets]),
    )


def scan_hits(
    indices: array,
    offsets: OffsetBuffers,
    owner: array,
    self_id: int,
    num_cols: int,
    num_rows: int,
) -> Iterable[Hit]:
    """Return the ``(source, neighbor)`` probe pairs that hit another net.

    For every flat index of *indices* (i-major) and every in-bounds offset
    of *offsets*, in order, a pair survives when *owner* holds neither
    ``0`` nor *self_id* at the neighbor.  On the native tier the result is
    a list when empty, else a single-use lazy ``zip`` (CPython reuses the
    yielded tuple for plain ``for src, dst in hits`` consumers, so the
    common all-miss refresh allocates nothing per probe); on the Python
    tier it is a list.
    """
    kernel = accel.get_check_kernel()
    if kernel is None:
        return _scan_hits_python(indices, offsets, owner, self_id, num_cols, num_rows)
    dcols, drows, deltas = offsets
    capacity = len(indices) * len(deltas)
    if not capacity:
        return []
    if len(_out_src) < capacity:
        extra = bytes(8 * (max(capacity, 2 * len(_out_src), 1024) - len(_out_src)))
        _out_src.frombytes(extra)
        _out_dst.frombytes(extra)
    count = kernel.scan_hits(
        indices,
        dcols,
        drows,
        deltas,
        owner,
        num_cols,
        num_rows,
        self_id,
        _out_src,
        _out_dst,
    )
    if count == 0:
        return []
    return zip(_out_src[:count].tolist(), _out_dst[:count].tolist())


def _scan_hits_python(
    indices: array,
    offsets: OffsetBuffers,
    owner: array,
    self_id: int,
    num_cols: int,
    num_rows: int,
) -> List[Hit]:
    """The ``python`` tier of :func:`scan_hits`: the kernel's loop, in Python."""
    table = list(zip(*offsets))
    plane = num_cols * num_rows
    hits: List[Hit] = []
    for index in indices:
        col, row = divmod(index % plane, num_rows)
        for dcol, drow, delta in table:
            if 0 <= col + dcol < num_cols and 0 <= row + drow < num_rows:
                occupant = owner[index + delta]
                if occupant != 0 and occupant != self_id:
                    hits.append((index, index + delta))
    return hits


def zero_owner_mirror(num_vertices: int) -> array:
    """Return a zeroed int64 owner mirror sized for *num_vertices*."""
    return array("q", bytes(8 * num_vertices))
