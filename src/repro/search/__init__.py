"""Shared search-engine substrate for all routers.

:class:`SearchCore` is the one Dijkstra/A* loop behind the plain maze
router, the Mr.TPL color-state search and the DAC-2012 mask-expanded
baseline; the router-specific modules are thin adapters supplying an
expansion callback over flat grid indices.  :class:`TreeSeedOrder` fixes
the seed order of the searches that grow one net tree.
"""

from repro.search.core import (
    FLOOR_SLACK,
    IMPROVE_EPS,
    SUCC_CAPACITY,
    TIE_EPS,
    CoreResult,
    SearchCore,
)
from repro.search.scope import RouteScopedExpand
from repro.search.seeds import TreeSeedOrder

__all__ = [
    "SearchCore",
    "CoreResult",
    "RouteScopedExpand",
    "TreeSeedOrder",
    "FLOOR_SLACK",
    "IMPROVE_EPS",
    "SUCC_CAPACITY",
    "TIE_EPS",
]
