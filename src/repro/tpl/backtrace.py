"""Backtrace with verSet / segSet color merging (paper Algorithm 3).

After color-state searching reaches a pin, the path is walked backwards from
the destination vertex to the routed tree (the vertices with cost zero).
Along the walk the per-vertex color states are merged:

* a **verSet** (Definition 2) groups consecutive path vertices that share a
  color state,
* a **segSet** (Definition 3) groups verSets that can still share one mask;
  two adjacent vertices fall into different segSets only when a stitch is
  introduced between them.

When the walk ends, each segSet picks its final single mask (the cheapest
one against the surrounding already-colored metal) and the chosen colors are
written to the net's route.  Layer changes (vias) always terminate a segSet
but never count as stitches; the route's stitches follow from its colours
(:attr:`~repro.grid.NetRoute.stitches`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dr.cost import CostModel
from repro.grid import NetRoute, RoutingGrid
from repro.tpl.color_state import ALL_COLORS, ColorState
from repro.tpl.search import ColorSearchResult


@dataclass
class PathSegmentSet:
    """A segSet: a run of path vertices (flat indices) that will receive one common mask."""

    color_state: ColorState
    nodes: List[int] = field(default_factory=list)
    final_color: Optional[int] = None


@dataclass
class ColoredPath:
    """The outcome of backtracing one search: the path and its segSets' masks.

    Vertices are flat grid indices; :attr:`nodes` is the path ordered
    destination-first.
    """

    net_name: str
    nodes: List[int]
    segments: List[PathSegmentSet]

    def colors(self) -> Dict[int, int]:
        """Return the final mask of every path vertex, in path order."""
        result: Dict[int, int] = {}
        for segment in self.segments:
            if segment.final_color is not None:
                result.update(dict.fromkeys(segment.nodes, segment.final_color))
        return result


#: Table I bit of each single mask (red=0b100, green=0b010, blue=0b001).
_MASK_BIT = tuple(1 << (2 - color) for color in ALL_COLORS)

#: The masks a segSet of each color-state bits may take, in color order;
#: an empty state may take any.
_CANDIDATES = tuple(
    tuple(color for color in ALL_COLORS if bits & _MASK_BIT[color]) or ALL_COLORS
    for bits in range(8)
)


class Backtracer:
    """Implements Algorithm 3 on top of a :class:`ColorSearchResult`."""

    def __init__(self, grid: RoutingGrid, cost_model: CostModel) -> None:
        self.grid = grid
        self.cost_model = cost_model

    def backtrace(
        self,
        search: ColorSearchResult,
        net_name: str,
        tree_colors: Optional[Dict[int, int]] = None,
    ) -> ColoredPath:
        """Walk from the reached pin back to the tree and color the path.

        Parameters
        ----------
        search:
            A successful color-state search.
        net_name:
            The net being routed.
        tree_colors:
            Final masks of vertices (flat indices) already committed for
            this net (the routed tree).  The path's last vertex joins the
            tree; when the join vertex already has a mask the first/last
            segSet is constrained to it so a disagreement is surfaced as a
            stitch rather than silently overwritten.
        """
        if not search.found:
            raise ValueError("backtrace requires a successful search")
        tree_colors = tree_colors or {}
        path = search.node_path()
        plane = self.grid.plane_size
        # A committed tree vertex's state is its mask; any other vertex's
        # is the color state the search labelled it with.
        states = [
            bits if committed is None else _MASK_BIT[committed]
            for bits, committed in zip(search.aux_of(path), map(tree_colors.get, path))
        ]

        segments: List[PathSegmentSet] = []
        state = states[0]
        members = [path[0]]
        for previous, node, bits in zip(path, path[1:], states[1:]):
            if previous // plane == node // plane:
                # Algorithm 3 lines 11-15: join the segSet while the states
                # share a mask, narrowing to the common masks.
                common = state & bits
                if common:
                    state = common
                    members.append(node)
                    continue
            # A via, or Algorithm 3's "else" branch (no common mask: a
            # stitch separates the two segment sets), closes the segSet.
            segments.append(PathSegmentSet(color_state=ColorState(state), nodes=members))
            state = bits
            members = [node]
        segments.append(PathSegmentSet(color_state=ColorState(state), nodes=members))

        self._assign_final_colors(segments, tree_colors)
        return ColoredPath(net_name=net_name, nodes=path, segments=segments)

    # ------------------------------------------------------------------

    def _assign_final_colors(
        self,
        segments: Sequence[PathSegmentSet],
        tree_colors: Dict[int, int],
    ) -> None:
        """Collapse every segSet to one mask.

        The mask is chosen to (a) honour any already-committed tree vertex in
        the segSet, (b) minimise the summed color-conflict cost of the
        segSet's vertices against the surrounding colored metal, and
        (c) match the neighbouring segSet's mask when costs tie, which avoids
        gratuitous stitches.
        """
        pressure = self.grid.pressure_buffer()
        previous_color: Optional[int] = None
        for segment in segments:
            committed = [tree_colors[node] for node in segment.nodes if node in tree_colors]
            if committed:
                segment.final_color = committed[0]
                previous_color = segment.final_color
                continue
            red = green = blue = 0.0
            for node in segment.nodes:
                base = 3 * node
                red += pressure[base]
                green += pressure[base + 1]
                blue += pressure[base + 2]
            penalties = (red, green, blue)
            # The least (penalty, differs from the previous mask, color).
            candidates = _CANDIDATES[segment.color_state.bits]
            best = candidates[0]
            best_key = (penalties[best], best != previous_color)
            for color in candidates[1:]:
                key = (penalties[color], color != previous_color)
                if key < best_key:
                    best, best_key = color, key
            segment.final_color = best
            previous_color = best


def apply_colored_path(path: ColoredPath, route: NetRoute) -> None:
    """Write a backtraced path into the net's route.

    The route gains the path's vertices and edges, then its final vertex
    colors, computed once and written in bulk.  A stitch is real only where
    the two sides ended up on different masks -- two segSets split by a via
    are none, and segSets that chose the same mask merge back seamlessly --
    which is what :attr:`NetRoute.stitches` reads off the colours.
    """
    route.add_node_path(path.nodes)
    route.set_node_colors(list(path.colors().items()))
