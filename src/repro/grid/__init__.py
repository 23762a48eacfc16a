"""Routing grid: the 3-D track graph shared by every router in this repo.

The grid models the layout as ``layers x columns x rows`` of vertices at
track crossings (paper Section IV-B: "We model it as an undirected graph
G = (V, E)").  It tracks blockages, per-net occupancy, colored metal for the
TPL interactions, and the history cost used by negotiation-based rip-up and
reroute.  A coarser GCell grid supports the global router that produces the
routing guides Mr.TPL uses to bound its color-cost region.
"""

from repro.grid.routing_grid import (
    ALL_DIRECTIONS,
    CellWindow,
    DIRECTION_INDEX,
    FIRST_VIA_DIRECTION,
    INDEX_DIRECTION,
    NUM_DIRECTIONS,
    OP_COLOR,
    OP_OCCUPY,
    Direction,
    PLANAR_DIRECTIONS,
    RoutingGrid,
)
from repro.grid.route import NetRoute, RoutingSolution, Stitch
from repro.grid.gcell import GCellGrid

__all__ = [
    "CellWindow",
    "Direction",
    "RoutingGrid",
    "PLANAR_DIRECTIONS",
    "ALL_DIRECTIONS",
    "DIRECTION_INDEX",
    "INDEX_DIRECTION",
    "NUM_DIRECTIONS",
    "FIRST_VIA_DIRECTION",
    "OP_COLOR",
    "OP_OCCUPY",
    "NetRoute",
    "RoutingSolution",
    "Stitch",
    "GCellGrid",
]
