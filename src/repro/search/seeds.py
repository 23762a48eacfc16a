"""The seed order of a net tree grown on flat indices.

The plain router and Mr.TPL grow a multi-pin net as a tree and seed every
search with the whole tree so far.  The search kernel breaks cost ties by
push order, so the seed order is part of the routing result.  That order
has always been the iteration order of a Python set of the tree's
:class:`~repro.geometry.GridPoint` vertices.  ``GridPoint`` is a frozen
dataclass whose hash is ``hash((layer, col, row))``, so a set of
``(layer, col, row)`` tuples given the same insertions, in the same calls,
iterates in the same order -- whatever ``PYTHONHASHSEED`` is, as tuples of
ints hash the same under every seed.  :class:`TreeSeedOrder` keeps that
order-only set and hands the seeds back as flat indices, so no
``GridPoint`` is built on the routing path.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple


class TreeSeedOrder:
    """The tree's vertices as ``(layer, col, row)`` keys, in set order.

    Built from the first pin's access nodes, then grown with :meth:`update`
    by each path and each reached pin's access nodes, as the ``GridPoint``
    set it replaces was (``set(list)``, then ``update(list)``: a set's
    layout depends on how it was filled, not only on what it holds).
    """

    __slots__ = ("_keys", "_num_cols", "_num_rows", "_plane")

    def __init__(self, dims: Tuple[int, int], nodes: Iterable[int]) -> None:
        self._num_cols, self._num_rows = dims
        self._plane = self._num_cols * self._num_rows
        self._keys: Set[Tuple[int, int, int]] = set(self._keys_of(nodes))

    def _keys_of(self, nodes: Iterable[int]) -> List[Tuple[int, int, int]]:
        plane, num_rows = self._plane, self._num_rows
        return [(node // plane, node % plane // num_rows, node % num_rows) for node in nodes]

    def update(self, nodes: Iterable[int]) -> None:
        """Add the flat indices *nodes*, in order."""
        self._keys.update(self._keys_of(nodes))

    def nodes(self) -> List[int]:
        """Return the tree's flat indices in seed order."""
        num_cols, num_rows = self._num_cols, self._num_rows
        return [(layer * num_cols + col) * num_rows + row for layer, col, row in self._keys]
