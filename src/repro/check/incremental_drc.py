"""Incremental shorts tally for the plain router's check step.

:meth:`DetailedRouter._check <repro.dr.DetailedRouter>` reads one fact per
rip-up round: which nets share a grid vertex with another net.  This
checker keeps the vertex -> nets map of every route, failed ones included
(as :meth:`repro.dr.drc.DRCChecker.find_shorts` does), and on
:meth:`refresh` re-reads only the nets whose route changed since the
previous call, read from the :class:`~repro.grid.RoutingSolution` alone: a
route whose monotone ``revision`` stamp moved (rip-up & reroute swaps
``NetRoute`` instances, snapshot restores swap them back,
:meth:`NetRoute.set_color` re-stamps in place) or a net gone from the
solution.  Identity comparison would be unsound: the allocator reuses
addresses of collected routes.

Spacing, open-net and guide statistics are not tallied here: no check step
reads them, and final evaluation takes them from the full-scan
:class:`~repro.dr.drc.DRCChecker`.  ``tests/test_incremental_check.py``
and ``tests/test_check_kernels.py`` compare :meth:`shorted_nets` with the
nets of that checker's shorts after every mutation.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.grid import RoutingSolution


class IncrementalDRCChecker:
    """Incrementally maintained set of shorted nets over a routing solution."""

    def __init__(self) -> None:
        self._route_revisions: Dict[str, int] = {}
        # Per net: the flat indices of its route as last refreshed.
        self._net_indices: Dict[str, Tuple[int, ...]] = {}
        # Flat index -> names of the nets whose route holds it.
        self._vertex_nets: Dict[int, Set[str]] = {}
        # Flat indices held by two or more nets.
        self._shorted: Set[int] = set()

    def refresh(self, solution: RoutingSolution) -> Set[str]:
        """Re-read dirty nets from *solution*; return the dirty set."""
        routes = solution.routes
        revisions = self._route_revisions
        dirty = {name for name, route in routes.items() if revisions.get(name) != route.revision}
        dirty.update(name for name in revisions if name not in routes)
        dirty.discard("")
        vertex_nets = self._vertex_nets
        touched: Set[int] = set()
        for name in dirty:
            for index in self._net_indices.pop(name, ()):
                nets = vertex_nets[index]
                nets.discard(name)
                if not nets:
                    del vertex_nets[index]
                touched.add(index)
            route = routes.get(name)
            if route is None:
                del revisions[name]
                continue
            revisions[name] = route.revision
            indices = self._net_indices[name] = tuple(route.nodes)
            for index in indices:
                vertex_nets.setdefault(index, set()).add(name)
            touched.update(indices)
        for index in touched:
            if len(vertex_nets.get(index, ())) > 1:
                self._shorted.add(index)
            else:
                self._shorted.discard(index)
        return dirty

    def shorted_nets(self) -> Set[str]:
        """Return every net currently involved in a short (after a refresh)."""
        return set().union(*[self._vertex_nets[index] for index in self._shorted])
