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
committed to the route and the grid.  Layer changes (vias) always terminate
a segSet but never count as stitches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dr.cost import CostModel
from repro.geometry import GridPoint
from repro.grid import NetRoute, RoutingGrid
from repro.tpl.color_state import ALL_COLORS, ColorState
from repro.tpl.search import ColorSearchResult


@dataclass
class PathSegmentSet:
    """A segSet: a run of path vertices that will receive one common mask."""

    color_state: ColorState
    vertices: List[GridPoint] = field(default_factory=list)
    final_color: Optional[int] = None

    def add_vertex(self, vertex: GridPoint, state: ColorState) -> bool:
        """Try to absorb *vertex* with color state *state*.

        Returns ``True`` when the vertex joins this segSet (the states share a
        mask); the segSet's state narrows to the common masks, mirroring
        Algorithm 3 lines 11-15.  Returns ``False`` when a stitch is needed.
        """
        common = self.color_state.intersection(state)
        if common.is_empty:
            return False
        self.color_state = common
        self.vertices.append(vertex)
        return True

    @property
    def first(self) -> GridPoint:
        """Return the first vertex added (closest to the destination pin)."""
        return self.vertices[0]

    @property
    def last(self) -> GridPoint:
        """Return the last vertex added (closest to the routed tree)."""
        return self.vertices[-1]


@dataclass
class ColoredPath:
    """The outcome of backtracing one search: colored vertices plus stitches."""

    net_name: str
    vertices: List[GridPoint]
    segments: List[PathSegmentSet]
    stitches: List[Tuple[GridPoint, GridPoint]]

    def color_of(self, vertex: GridPoint) -> Optional[int]:
        """Return the final mask of *vertex* on this path, if assigned."""
        for segment in self.segments:
            if segment.final_color is not None and vertex in segment.vertices:
                return segment.final_color
        return None

    def colors(self) -> Dict[GridPoint, int]:
        """Return the final mask of every path vertex."""
        result: Dict[GridPoint, int] = {}
        for segment in self.segments:
            if segment.final_color is None:
                continue
            for vertex in segment.vertices:
                result[vertex] = segment.final_color
        return result

    @property
    def stitch_count(self) -> int:
        """Return the number of stitches introduced along this path."""
        return len(self.stitches)


class Backtracer:
    """Implements Algorithm 3 on top of a :class:`ColorSearchResult`."""

    def __init__(self, grid: RoutingGrid, cost_model: CostModel) -> None:
        self.grid = grid
        self.cost_model = cost_model

    def backtrace(
        self,
        search: ColorSearchResult,
        net_name: str,
        tree_colors: Optional[Dict[GridPoint, int]] = None,
    ) -> ColoredPath:
        """Walk from the reached pin back to the tree and color the path.

        Parameters
        ----------
        search:
            A successful color-state search.
        net_name:
            The net being routed.
        tree_colors:
            Final masks of vertices already committed for this net (the
            routed tree).  The path's last vertex joins the tree; when the
            join vertex already has a mask the first/last segSet is
            constrained to it so a disagreement is surfaced as a stitch
            rather than silently overwritten.
        """
        if not search.found:
            raise ValueError("backtrace requires a successful search")
        tree_colors = tree_colors or {}
        path = search.path_to_source()

        segments: List[PathSegmentSet] = []
        stitches: List[Tuple[GridPoint, GridPoint]] = []

        def state_of(vertex: GridPoint) -> ColorState:
            committed = tree_colors.get(vertex)
            if committed is not None:
                return ColorState.single(committed)
            return search.color_state_of(vertex)

        current = PathSegmentSet(color_state=state_of(path[0]), vertices=[path[0]])
        segments.append(current)
        for previous, vertex in zip(path, path[1:]):
            same_layer = previous.layer == vertex.layer
            if same_layer and current.add_vertex(vertex, state_of(vertex)):
                continue
            if same_layer:
                # No common mask: Algorithm 3's "else" branch -- a stitch
                # separates the two segment sets.
                stitches.append((previous, vertex))
            current = PathSegmentSet(color_state=state_of(vertex), vertices=[vertex])
            segments.append(current)

        self._assign_final_colors(segments, tree_colors)
        # A stitch is only real if the two sides ended up on different masks;
        # two segSets split by a via are not stitches, and segSets that happen
        # to choose the same mask merge back seamlessly.
        confirmed = [
            (a, b)
            for (a, b) in stitches
            if self._final_color_at(segments, a) != self._final_color_at(segments, b)
        ]
        return ColoredPath(
            net_name=net_name,
            vertices=path,
            segments=segments,
            stitches=confirmed,
        )

    # ------------------------------------------------------------------

    def _assign_final_colors(
        self,
        segments: Sequence[PathSegmentSet],
        tree_colors: Dict[GridPoint, int],
    ) -> None:
        """Collapse every segSet to one mask.

        The mask is chosen to (a) honour any already-committed tree vertex in
        the segSet, (b) minimise the summed color-conflict cost of the
        segSet's vertices against the surrounding colored metal, and
        (c) match the neighbouring segSet's mask when costs tie, which avoids
        gratuitous stitches.
        """
        previous_color: Optional[int] = None
        for segment in segments:
            committed = [
                tree_colors[v] for v in segment.vertices if v in tree_colors
            ]
            if committed:
                segment.final_color = committed[0]
                previous_color = segment.final_color
                continue
            penalties = [0.0, 0.0, 0.0]
            for vertex in segment.vertices:
                vertex_costs = self.grid.color_costs(vertex)
                for color in ALL_COLORS:
                    penalties[color] += vertex_costs[color]
            candidates = segment.color_state.colors() or list(ALL_COLORS)
            best = min(
                candidates,
                key=lambda color: (
                    penalties[color],
                    0 if color == previous_color else 1,
                    color,
                ),
            )
            segment.final_color = best
            previous_color = best

    @staticmethod
    def _final_color_at(
        segments: Sequence[PathSegmentSet], vertex: GridPoint
    ) -> Optional[int]:
        for segment in segments:
            if vertex in segment.vertices:
                return segment.final_color
        return None


def apply_colored_path(
    path: ColoredPath,
    route: NetRoute,
    sink: "object",
) -> None:
    """Write a backtraced path into the net's route and a commit *sink*.

    The route gains the path edges, the final vertex colors, and the
    confirmed stitches; the sink (a
    :class:`~repro.sched.commit.RecordingSink`) receives the color and
    occupancy commits in order, for one route commit once the whole net is
    routed.
    """
    ordered = path.vertices
    route.add_path(ordered)
    for vertex, color in path.colors().items():
        route.set_color(vertex, color)
        sink.set_color(vertex, color)
    for vertex in ordered:
        sink.occupy(vertex)
    for a, b in path.stitches:
        route.add_stitch(a, b)


def commit_colored_path(
    path: ColoredPath,
    route: NetRoute,
    grid: RoutingGrid,
) -> None:
    """Write a backtraced path into the net's route and the shared grid.

    Convenience over :func:`apply_colored_path` for callers holding a grid
    rather than a sink: the path's commits go to the grid in one route
    commit, so the net must hold no metal there yet.
    """
    from repro.sched.commit import RecordingSink

    sink = RecordingSink(grid, route.net_name)
    apply_colored_path(path, route, sink)
    grid.commit_route(sink.ops)
