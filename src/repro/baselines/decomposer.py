"""OpenMPL-like layout decomposition of an already-routed layout.

This is the Table III comparator: the layout is routed by a TPL-unaware
detailed router (the paper uses Dr.CU 2.0; here :class:`repro.dr.DetailedRouter`)
and only afterwards assigned to the three masks.  Because "the layout
patterns remain unchanged, existing layout decomposition methods inevitably
lead to unsolvable color conflict issues" (paper Section I) -- densely
routed regions simply cannot be 3-colored, whereas a routing-time method
such as Mr.TPL would have moved the wires instead.

Pipeline (mirroring OpenMPL's structure):

1. **unit extraction** -- each net's routed metal is split per layer into
   straight runs; run boundaries (corners, via landings) are the stitch
   candidates,
2. **graph construction** -- conflict edges between different-net units
   within ``Dcolor``, stitch edges between electrically adjacent units of
   the same net on the same layer,
3. **component-wise coloring** -- exact branch-and-bound for small
   components, greedy + improvement otherwise (:mod:`repro.baselines.coloring`),
4. **write-back** -- the chosen masks are written into a copy of the routing
   solution so the shared :class:`~repro.tpl.conflict.ConflictChecker`
   scores decomposition and routing-time coloring identically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.design import Design
from repro.geometry import GridPoint
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.baselines.coloring import ColoringProblem, solve_coloring
from repro.tpl.conflict import ConflictChecker, ConflictReport
from repro.utils import Timer, get_logger

_LOG = get_logger("baselines.decomposer")

#: Identifier of one coloring unit: (net name, unit index).
UnitId = Tuple[str, int]


@dataclass
class ColoringUnit:
    """A straight run of one net's routed metal on one layer."""

    unit_id: UnitId
    net_name: str
    layer: int
    vertices: List[GridPoint] = field(default_factory=list)


@dataclass
class DecompositionResult:
    """The colored solution plus the decomposition-level statistics."""

    solution: RoutingSolution
    assignment: Dict[UnitId, int]
    units: List[ColoringUnit]
    conflict_report: ConflictReport
    runtime_seconds: float = 0.0

    @property
    def conflicts(self) -> int:
        """Return the number of color conflicts after decomposition."""
        return self.conflict_report.conflict_count

    @property
    def stitches(self) -> int:
        """Return the number of stitches after decomposition."""
        return self.solution.total_stitches()


class LayoutDecomposer:
    """Colors an uncolored routed layout with three masks (OpenMPL-like)."""

    name = "openmpl-like"

    def __init__(
        self,
        design: Design,
        grid: RoutingGrid,
        conflict_weight: float = 10.0,
        stitch_weight: float = 1.0,
        exact_component_limit: int = 14,
        stitch_candidates: bool = True,
    ) -> None:
        self.design = design
        self.grid = grid
        self.rules = grid.rules
        self.conflict_weight = conflict_weight
        self.stitch_weight = stitch_weight
        self.exact_component_limit = exact_component_limit
        #: When ``True`` every straight run is its own coloring unit, so a
        #: stitch may be inserted at every bend or via landing -- a *more*
        #: generous stitch-candidate set than OpenMPL's projection-based one.
        #: When ``False`` whole same-layer polygons are colored as one unit,
        #: which matches decomposition without stitch insertion.
        self.stitch_candidates = stitch_candidates

    # ------------------------------------------------------------------

    def decompose(self, solution: RoutingSolution) -> DecompositionResult:
        """Assign masks to every routed vertex of *solution*.

        The input solution is not modified; a colored copy is returned.
        """
        timer = Timer()
        timer.start()
        units = self.extract_units(solution)
        problem = self.build_problem(units)
        assignment = solve_coloring(problem, self.exact_component_limit)
        # Units that interact with nothing never enter the coloring graph;
        # any mask is legal for them, so they default to the first one.
        for unit in units:
            assignment.setdefault(unit.unit_id, 0)
        colored = self._write_back(solution, units, assignment)
        checker = ConflictChecker(self.design, self.grid)
        report = checker.check(colored)
        elapsed = timer.stop()
        _LOG.info(
            "decomposed %d units into %d conflicts / %d stitches",
            len(units),
            report.conflict_count,
            colored.total_stitches(),
        )
        return DecompositionResult(
            solution=colored,
            assignment=assignment,
            units=units,
            conflict_report=report,
            runtime_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Unit extraction
    # ------------------------------------------------------------------

    def extract_units(self, solution: RoutingSolution) -> List[ColoringUnit]:
        """Split every routed net into straight-run coloring units."""
        units: List[ColoringUnit] = []
        for route in solution.routes.values():
            if not route.routed:
                continue
            units.extend(self._net_units(route))
        return units

    def _net_units(self, route: NetRoute) -> List[ColoringUnit]:
        adjacency = route.adjacency()
        vertices_by_layer: Dict[int, List[GridPoint]] = defaultdict(list)
        for vertex in route.vertices:
            vertices_by_layer[vertex.layer].append(vertex)

        if not self.stitch_candidates:
            return self._polygon_units(route, adjacency, vertices_by_layer)

        units: List[ColoringUnit] = []
        assigned: Dict[GridPoint, int] = {}
        counter = 0

        def new_unit(layer: int) -> ColoringUnit:
            nonlocal counter
            unit = ColoringUnit(
                unit_id=(route.net_name, counter), net_name=route.net_name, layer=layer
            )
            counter += 1
            units.append(unit)
            return unit

        for layer, vertices in sorted(vertices_by_layer.items()):
            # Horizontal runs first: consecutive columns in the same row that
            # are actually connected by route edges.
            for vertex in sorted(vertices):
                if vertex in assigned:
                    continue
                run = self._collect_run(vertex, adjacency, horizontal=True)
                if len(run) > 1:
                    unit = new_unit(layer)
                    for member in run:
                        if member not in assigned:
                            assigned[member] = len(units) - 1
                            unit.vertices.append(member)
            # Vertical runs over whatever is left, then isolated vertices.
            for vertex in sorted(vertices):
                if vertex in assigned:
                    continue
                run = self._collect_run(vertex, adjacency, horizontal=False)
                unit = new_unit(layer)
                for member in run:
                    if member not in assigned:
                        assigned[member] = len(units) - 1
                        unit.vertices.append(member)
        return [unit for unit in units if unit.vertices]

    def _polygon_units(
        self,
        route: NetRoute,
        adjacency: Dict[GridPoint, List[GridPoint]],
        vertices_by_layer: Dict[int, List[GridPoint]],
    ) -> List[ColoringUnit]:
        """Return one unit per same-layer connected component (no stitch candidates)."""
        units: List[ColoringUnit] = []
        counter = 0
        for layer, vertices in sorted(vertices_by_layer.items()):
            remaining = set(vertices)
            while remaining:
                seed = min(remaining)
                component: List[GridPoint] = []
                stack = [seed]
                seen = {seed}
                while stack:
                    vertex = stack.pop()
                    component.append(vertex)
                    for neighbor in adjacency.get(vertex, ()):
                        if neighbor.layer == layer and neighbor not in seen:
                            seen.add(neighbor)
                            stack.append(neighbor)
                remaining -= seen
                units.append(
                    ColoringUnit(
                        unit_id=(route.net_name, counter),
                        net_name=route.net_name,
                        layer=layer,
                        vertices=sorted(component),
                    )
                )
                counter += 1
        return units

    def _collect_run(
        self,
        seed: GridPoint,
        adjacency: Dict[GridPoint, List[GridPoint]],
        horizontal: bool,
    ) -> List[GridPoint]:
        """Return the maximal straight run through *seed* in one axis."""

        def step_matches(a: GridPoint, b: GridPoint) -> bool:
            if a.layer != b.layer:
                return False
            if horizontal:
                return a.row == b.row and abs(a.col - b.col) == 1
            return a.col == b.col and abs(a.row - b.row) == 1

        run = [seed]
        frontier = [seed]
        visited = {seed}
        while frontier:
            vertex = frontier.pop()
            for neighbor in adjacency.get(vertex, ()):
                if neighbor in visited:
                    continue
                if step_matches(vertex, neighbor):
                    visited.add(neighbor)
                    run.append(neighbor)
                    frontier.append(neighbor)
        return sorted(run)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def build_problem(self, units: List[ColoringUnit]) -> ColoringProblem:
        """Build the conflict/stitch coloring problem over *units*."""
        problem = ColoringProblem(
            conflict_weight=self.conflict_weight, stitch_weight=self.stitch_weight
        )
        # Per net: flat vertex index -> the unit holding that vertex.
        unit_of_index: Dict[str, Dict[int, UnitId]] = defaultdict(dict)
        index_of = self.grid.index_of
        # Per layer: track key -> positions of the units covering that vertex.
        owners_by_layer: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
        windows: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        for position, unit in enumerate(units):
            if unit.layer not in windows:
                windows[unit.layer] = self.grid.track_probe(
                    self.rules.color_spacing_on(unit.layer)
                )
            stride = windows[unit.layer][0]
            owners = owners_by_layer[unit.layer]
            net_units = unit_of_index[unit.net_name]
            for vertex in unit.vertices:
                net_units[index_of(vertex)] = unit.unit_id
                owners.setdefault(vertex.col * stride + vertex.row, []).append(position)

        # Conflict edges: different nets, same layer, within Dcolor.
        conflict_pairs: Set[Tuple[UnitId, UnitId]] = set()
        for position, unit in enumerate(units):
            stride, window = windows[unit.layer]
            owners = owners_by_layer[unit.layer]
            for vertex in unit.vertices:
                base = vertex.col * stride + vertex.row
                for delta in window:
                    for other_position in owners.get(base + delta, ()):
                        # Lower positions already added this pair from their side.
                        if other_position <= position:
                            continue
                        other = units[other_position]
                        if other.net_name == unit.net_name:
                            continue
                        pair = tuple(sorted((unit.unit_id, other.unit_id)))
                        conflict_pairs.add(pair)  # type: ignore[arg-type]
        problem.conflict_edges = sorted(conflict_pairs)

        # Stitch edges: same net, same layer, adjacent units (share a routed edge).
        stitch_pairs: Set[Tuple[UnitId, UnitId]] = set()
        for unit in units:
            for neighbor_unit in self._adjacent_units_of(unit, unit_of_index[unit.net_name]):
                pair = tuple(sorted((unit.unit_id, neighbor_unit)))
                stitch_pairs.add(pair)  # type: ignore[arg-type]
        problem.stitch_edges = sorted(stitch_pairs - conflict_pairs)

        # Pre-colored obstacles become fixed pseudo-units.
        for index, (name, obstacle) in enumerate(self.design.fixed_color_nets()):
            node: UnitId = (name, index)
            problem.fixed_colors[node] = obstacle.color
            window = self.grid.track_window(
                obstacle.rect, self.rules.color_spacing_on(obstacle.layer)
            )
            if window is None:
                continue
            col_lo, col_hi, row_lo, row_hi = window
            for unit in units:
                if unit.layer != obstacle.layer:
                    continue
                if any(
                    col_lo <= v.col <= col_hi and row_lo <= v.row <= row_hi
                    for v in unit.vertices
                ):
                    problem.conflict_edges.append((node, unit.unit_id))
        return problem

    def _adjacent_units_of(self, unit: ColoringUnit, net_units: Dict[int, UnitId]) -> List[UnitId]:
        """Return the other units of *unit*'s net planar-adjacent to its vertices.

        *net_units* maps the net's flat vertex indices to their units.
        """
        grid = self.grid
        num_cols, num_rows = grid.num_cols, grid.num_rows
        index_of = grid.index_of
        neighbors = []
        for vertex in unit.vertices:
            index = index_of(vertex)
            candidates = []
            if vertex.col + 1 < num_cols:
                candidates.append(index + num_rows)
            if vertex.col > 0:
                candidates.append(index - num_rows)
            if vertex.row + 1 < num_rows:
                candidates.append(index + 1)
            if vertex.row > 0:
                candidates.append(index - 1)
            for candidate in candidates:
                other = net_units.get(candidate)
                if other is not None and other != unit.unit_id:
                    neighbors.append(other)
        return neighbors

    # ------------------------------------------------------------------
    # Write-back
    # ------------------------------------------------------------------

    def _write_back(
        self,
        solution: RoutingSolution,
        units: List[ColoringUnit],
        assignment: Dict[UnitId, int],
    ) -> RoutingSolution:
        colored = RoutingSolution(
            design_name=solution.design_name,
            router_name=f"{solution.router_name}+{self.name}",
            runtime_seconds=solution.runtime_seconds,
            iterations=solution.iterations,
        )
        for route in solution.routes.values():
            clone = NetRoute(
                net_name=route.net_name,
                vertices=set(route.vertices),
                edges=set(route.edges),
                routed=route.routed,
                failure_reason=route.failure_reason,
            )
            colored.add_route(clone)
        for unit in units:
            color = assignment.get(unit.unit_id)
            if color is None:
                continue
            route = colored.routes[unit.net_name]
            for vertex in unit.vertices:
                route.set_color(vertex, color)
        for route in colored.routes.values():
            route.recount_stitches()
        return colored
