"""Dirty-region tracking over :class:`~repro.grid.RoutingGrid` deltas.

Every rip-up-and-reroute iteration only touches a handful of nets, yet the
full-scan checkers re-walk the whole solution.  The tracker subscribes to
the grid's per-net occupancy/color delta hooks (commit/release, both O(|net|)
thanks to the per-net reverse occupancy index) and accumulates

* the set of **dirty nets** -- nets whose metal or masks changed since the
  tracker was last drained, and
* the set of **dirty flat indices** -- every vertex index touched by a
  commit, release or recolor.

The incremental checkers in this package drain one tracker each and
re-scan each dirty net's metal over the interaction offsets of
:meth:`RoutingGrid.track_offsets`.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.grid import RoutingGrid


class DirtyRegionTracker:
    """Accumulates per-net grid deltas into dirty-net and dirty-index sets.

    Attach with ``DirtyRegionTracker(grid)`` (subscribes itself) and drain
    with :meth:`consume` once per check refresh.  ``on_reset`` (emitted by
    :meth:`RoutingGrid.reset_routing_state`) flips :attr:`needs_rebuild` so
    consumers fall back to one full re-scan instead of trusting stale tallies.
    """

    def __init__(self, grid: RoutingGrid, subscribe: bool = True) -> None:
        self.grid = grid
        self._dirty_net_ids: Set[int] = set()
        self._dirty_indices: Set[int] = set()
        self.needs_rebuild = True
        if subscribe:
            grid.add_delta_listener(self)

    # -- grid delta hooks ---------------------------------------------------

    def on_commit(self, net_id: int, indices: Iterable[int]) -> None:
        """Record *net_id*'s occupancy or mask commits at *indices*."""
        self._dirty_net_ids.add(net_id)
        self._dirty_indices.update(indices)

    def on_release(self, net_id: int, indices: Set[int]) -> None:
        """Record the release of every vertex *net_id* occupied or colored."""
        self._dirty_net_ids.add(net_id)
        self._dirty_indices.update(indices)

    def on_reset(self) -> None:
        """Record a bulk grid reset: incremental state must be rebuilt."""
        self.needs_rebuild = True
        self._dirty_net_ids.clear()
        self._dirty_indices.clear()

    # -- queries ------------------------------------------------------------

    def dirty_nets(self) -> Set[str]:
        """Return the names of nets with pending deltas."""
        return {self.grid.net_name_of(net_id) for net_id in self._dirty_net_ids}

    def consume(self) -> Tuple[Set[str], Set[int], bool]:
        """Drain and return ``(dirty nets, raw dirty indices, needs_rebuild)``."""
        nets = self.dirty_nets()
        indices = self._dirty_indices
        rebuild = self.needs_rebuild
        self._dirty_net_ids = set()
        self._dirty_indices = set()
        self.needs_rebuild = False
        return nets, indices, rebuild

    def detach(self) -> None:
        """Unsubscribe from the grid's delta hooks."""
        self.grid.remove_delta_listener(self)
