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
``buffered-numpy``
    One broadcast over ``indices x offsets``: candidate flat indices,
    bounds mask from the column/row components, occupancy-owner gather.
``buffered-python``
    :func:`scan_hits` returns ``None`` and the caller runs its original
    pure dict/set loop, which stays the behavioral reference.

The surviving ``(source, neighbor)`` pairs are returned in the pure
loop's i-major order and post-processed by the checker's unchanged
per-hit Python logic, so all tiers produce identical reports -- the
contract ``tests/test_check_kernels.py`` fuzzes.

The *owner* mirror is an ``array('q')`` the checkers maintain
incrementally alongside their occupancy dicts: ``0`` = empty, a positive
interned net id = single occupant, ``-1`` = multiple occupants (the scan
always reports those; the caller consults the exact dict).  Passing the
scanned net's own id as *self_id* drops same-net probes in the kernel.
"""

from __future__ import annotations

import threading
from array import array
from typing import Iterable, Optional, Tuple

from repro import accel
from repro.grid.routing_grid import OffsetArrays

#: A surviving probe: (source flat index, neighbor flat index).
Hit = Tuple[int, int]

# Per-thread staging buffers for the native kernel's output, grown
# geometrically; the hit pairs are copied to Python lists before returning,
# so reuse across calls is safe.
_stage = threading.local()


def _staging(np: object, capacity: int) -> Tuple[object, object]:
    buffers = getattr(_stage, "buffers", None)
    if buffers is None or len(buffers[0]) < capacity:
        size = max(capacity, 1024)
        buffers = (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64))
        _stage.buffers = buffers
    return buffers


def scan_hits(
    indices: array,
    offsets: OffsetArrays,
    owner: array,
    self_id: int,
    num_cols: int,
    num_rows: int,
) -> Optional[Iterable[Hit]]:
    """Return surviving probe pairs, or ``None`` when no accelerated tier is on.

    ``None`` tells the caller to run its pure-Python loop.  Otherwise the
    scan ran and the result is an iterable of ``(source, neighbor)`` pairs
    in the pure loop's i-major order -- a list when empty, else a single-use
    lazy ``zip`` (CPython reuses the yielded tuple for plain ``for src, dst
    in hits`` consumers, so the common all-miss refresh allocates nothing
    per probe).
    """
    np = accel.get_numpy()
    if np is None:
        return None
    if not len(indices) or not len(offsets):
        return []

    kernel = accel.get_check_kernel()
    if kernel is not None:
        capacity = len(indices) * len(offsets)
        out_src, out_dst = _staging(np, capacity)
        count = kernel.scan_hits(
            indices,
            offsets.dcols,
            offsets.drows,
            offsets.deltas,
            owner,
            num_cols,
            num_rows,
            self_id,
            out_src,
            out_dst,
        )
        if count == 0:
            return []
        return zip(out_src[:count].tolist(), out_dst[:count].tolist())

    idx = np.frombuffer(indices, dtype=np.int64)
    dcols = np.frombuffer(offsets.dcols, dtype=np.int64)
    drows = np.frombuffer(offsets.drows, dtype=np.int64)
    deltas = np.frombuffer(offsets.deltas, dtype=np.int64)
    owners = np.frombuffer(owner, dtype=np.int64)

    pos = idx % (num_cols * num_rows)
    col = pos // num_rows
    row = pos - col * num_rows
    ncol = col[:, None] + dcols[None, :]
    nrow = row[:, None] + drows[None, :]
    valid = (ncol >= 0) & (ncol < num_cols) & (nrow >= 0) & (nrow < num_rows)
    cand = idx[:, None] + deltas[None, :]
    # Out-of-plane candidates are masked off; index 0 keeps the gather legal.
    safe = np.where(valid, cand, 0)
    occupant = owners[safe]
    hit = valid & (occupant != 0) & (occupant != self_id)
    src_i, off_j = np.nonzero(hit)
    if not src_i.size:
        return []
    return zip(idx[src_i].tolist(), safe[src_i, off_j].tolist())


def zero_owner_mirror(num_vertices: int) -> array:
    """Return a zeroed int64 owner mirror sized for *num_vertices*."""
    return array("q", bytes(8 * num_vertices))
