"""Accelerated neighborhood scan shared by the incremental checkers.

The hot loop of both :class:`~repro.check.IncrementalDRCChecker` and
:class:`~repro.check.IncrementalConflictChecker` is the same shape: for
every flat vertex index of a dirty net, probe every precomputed planar
interaction offset against an occupancy mirror and do real work only for
neighbors held by *another* net.  The overwhelming majority of probes
miss (empty cell, or the net's own metal), so :func:`scan_hits` filters
them in bulk:

``native``
    ``repro.native._checkwork.scan_hits`` runs the whole double loop in C
    over the caller's flat buffers (GIL released).
``python``
    :func:`scan_hits` returns ``None`` and the caller runs its original
    pure dict/set loop, which stays the behavioral reference.

The surviving ``(source, neighbor)`` pairs are returned in the pure
loop's i-major order and post-processed by the checker's unchanged
per-hit Python logic, so both tiers produce identical reports -- the
contract ``tests/test_check_kernels.py`` fuzzes.

The *owner* mirror is an ``array('q')`` the checkers maintain
incrementally alongside their occupancy dicts: ``0`` = empty, a positive
interned net id = single occupant, ``-1`` = multiple occupants (the scan
always reports those; the caller consults the exact dict).  Passing the
scanned net's own id as *self_id* drops same-net probes in the kernel.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Tuple

from repro import accel
from repro.grid.routing_grid import OffsetArrays

#: A surviving probe: (source flat index, neighbor flat index).
Hit = Tuple[int, int]

# Staging buffers for the native kernel's output, grown geometrically; the
# hit pairs are copied to Python lists before returning, so reuse across
# calls is safe.
_out_src = array("q")
_out_dst = array("q")


def scan_hits(
    indices: array,
    offsets: OffsetArrays,
    owner: array,
    self_id: int,
    num_cols: int,
    num_rows: int,
) -> Optional[Iterable[Hit]]:
    """Return surviving probe pairs, or ``None`` when the native kernel is off.

    ``None`` tells the caller to run its pure-Python loop.  Otherwise the
    scan ran and the result is an iterable of ``(source, neighbor)`` pairs
    in the pure loop's i-major order -- a list when empty, else a single-use
    lazy ``zip`` (CPython reuses the yielded tuple for plain ``for src, dst
    in hits`` consumers, so the common all-miss refresh allocates nothing
    per probe).
    """
    kernel = accel.get_check_kernel()
    if kernel is None:
        return None
    capacity = len(indices) * len(offsets)
    if not capacity:
        return []
    if len(_out_src) < capacity:
        extra = bytes(8 * (max(capacity, 2 * len(_out_src), 1024) - len(_out_src)))
        _out_src.frombytes(extra)
        _out_dst.frombytes(extra)
    count = kernel.scan_hits(
        indices,
        offsets.dcols,
        offsets.drows,
        offsets.deltas,
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


def zero_owner_mirror(num_vertices: int) -> array:
    """Return a zeroed int64 owner mirror sized for *num_vertices*."""
    return array("q", bytes(8 * num_vertices))
