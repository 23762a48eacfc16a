"""Tiered neighborhood scan of the incremental conflict checker.

The hot loop of :class:`~repro.check.IncrementalConflictChecker` finds a
dirty net's candidate partners: for every flat vertex index of its
features, probe every planar
:meth:`~repro.grid.RoutingGrid.track_offsets` offset against an occupancy
mirror and do real work only for neighbors that can conflict with the
scanned vertex.  The overwhelming majority of probes miss (empty cell,
the net's own metal, or another mask beyond the min-spacing reach), so
:func:`scan_hits` filters them in bulk:

``native``
    ``repro.native._checkwork.scan_hits`` (ABI 2) runs the whole double
    loop in C over the caller's flat buffers (GIL released).
``python``
    the same double loop in Python.

The candidate rule is :meth:`repro.tpl.conflict.ConflictChecker._pair_kind`'s
own vertex rule.  A neighbor survives when its *owner* slot holds neither
``0`` (empty) nor the scanned net's *self_id*, and either

* the slot is ``-1`` (several owners: always reported, the caller reads
  the exact owners from its dict),
* or the Chebyshev track offset is within the layer's min-spacing reach,
* or the offset is within the layer's Dcolor reach and the neighbor's
  mask (*owner_masks*) equals the scanned vertex's mask (*masks*).

Two features conflict exactly when some vertex pair of theirs meets that
rule, so a partner net that no probe reaches has no conflict with the
scanned net.

The kernel reads the scanned indices and an offset table as
``array('q')`` columns (:func:`offset_buffers` builds the table's once),
the owner mirror as ``array('i')`` and the masks as ``array('b')`` bytes.
Both tiers return the surviving ``(source, neighbor)`` pairs in the same
i-major order, and the checker's per-hit Python logic post-processes
them, so both tiers produce identical reports -- the contract
``tests/test_check_kernels.py`` checks against a brute-force loop and the
full-scan oracle.  Both tiers raise
:class:`ValueError` before scanning when *masks* and *indices* differ in
length or *owner_masks* is shorter than *owner*.

The *owner* mirror is an ``array('i')`` the checker maintains
incrementally: ``0`` = empty, a positive interned net id = single
occupant, ``-1`` = several occupants.  The *owner_masks* mirror beside it
(:func:`zero_mask_mirror`) holds the single occupant's mask.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Sequence, Tuple

from repro import accel

#: A surviving probe: (source flat index, neighbor flat index).
Hit = Tuple[int, int]

#: An offset table as the kernel reads it: ``(dcols, drows, deltas)``.
OffsetBuffers = Tuple[array, array, array]

#: A layer's ``(min-spacing reach, Dcolor reach)`` in tracks
#: (:attr:`repro.tpl.conflict.ConflictChecker._reaches`).
Reaches = Tuple[int, int]

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
    masks: array,
    offsets: OffsetBuffers,
    owner: array,
    owner_masks: array,
    self_id: int,
    reaches: Reaches,
    num_cols: int,
    num_rows: int,
) -> Iterable[Hit]:
    """Return the ``(source, neighbor)`` probe pairs that can conflict.

    For every flat index of *indices* (i-major, its mask at the same
    position of *masks*) and every in-bounds offset of *offsets*, in order,
    a pair survives under the module's candidate rule.  On the native tier
    the result is a list when empty, else a single-use lazy ``zip``
    (CPython reuses the yielded tuple for plain ``for src, dst in hits``
    consumers); on the Python tier it is a list.
    """
    kernel = accel.get_check_kernel()
    if kernel is None:
        return _scan_hits_python(
            indices, masks, offsets, owner, owner_masks, self_id, reaches, num_cols, num_rows
        )
    dcols, drows, deltas = offsets
    capacity = len(indices) * len(deltas)
    if not capacity:
        _check_mask_lengths(indices, masks, owner, owner_masks)
        return []
    if len(_out_src) < capacity:
        extra = bytes(8 * (max(capacity, 2 * len(_out_src), 1024) - len(_out_src)))
        _out_src.frombytes(extra)
        _out_dst.frombytes(extra)
    spacing_reach, color_reach = reaches
    count = kernel.scan_hits(
        indices,
        masks,
        dcols,
        drows,
        deltas,
        owner,
        owner_masks,
        num_cols,
        num_rows,
        self_id,
        spacing_reach,
        color_reach,
        _out_src,
        _out_dst,
    )
    if count == 0:
        return []
    return zip(_out_src[:count].tolist(), _out_dst[:count].tolist())


def _check_mask_lengths(indices: array, masks: array, owner: array, owner_masks: array) -> None:
    """Raise :class:`ValueError` unless the mask buffers fit *indices* and *owner*."""
    if len(masks) != len(indices):
        raise ValueError("masks and indices disagree on length")
    if len(owner_masks) < len(owner):
        raise ValueError("mask mirror shorter than the owner mirror")


def _scan_hits_python(
    indices: array,
    masks: array,
    offsets: OffsetBuffers,
    owner: array,
    owner_masks: array,
    self_id: int,
    reaches: Reaches,
    num_cols: int,
    num_rows: int,
) -> List[Hit]:
    """The ``python`` tier of :func:`scan_hits`: the kernel's loop, in Python."""
    _check_mask_lengths(indices, masks, owner, owner_masks)
    spacing_reach, color_reach = reaches
    table = [
        (dcol, drow, delta, max(abs(dcol), abs(drow))) for dcol, drow, delta in zip(*offsets)
    ]
    plane = num_cols * num_rows
    hits: List[Hit] = []
    for index, mask in zip(indices, masks):
        col, row = divmod(index % plane, num_rows)
        for dcol, drow, delta, cheb in table:
            if 0 <= col + dcol < num_cols and 0 <= row + drow < num_rows:
                neighbor = index + delta
                occupant = owner[neighbor]
                if occupant == 0 or occupant == self_id:
                    continue
                if (
                    occupant == -1
                    or cheb <= spacing_reach
                    or (cheb <= color_reach and owner_masks[neighbor] == mask)
                ):
                    hits.append((index, neighbor))
    return hits


def zero_owner_mirror(num_vertices: int) -> array:
    """Return a zeroed int32 owner mirror sized for *num_vertices*."""
    return array("i", bytes(4 * num_vertices))


def zero_mask_mirror(num_vertices: int) -> array:
    """Return a zeroed int8 mask mirror sized for *num_vertices*."""
    return array("b", bytes(num_vertices))
