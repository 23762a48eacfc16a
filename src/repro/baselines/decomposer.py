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
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.baselines.coloring import ColoringProblem, solve_coloring
from repro.tpl.conflict import ConflictChecker, ConflictReport
from repro.utils import Timer, get_logger

_LOG = get_logger("baselines.decomposer")

#: Identifier of one coloring unit: (net name, unit index).
UnitId = Tuple[str, int]


@dataclass
class ColoringUnit:
    """A straight run of one net's routed metal on one layer (flat indices)."""

    unit_id: UnitId
    net_name: str
    layer: int
    nodes: List[int] = field(default_factory=list)


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
        plane_size = self.grid.plane_size
        nodes_by_layer: Dict[int, List[int]] = defaultdict(list)
        for node in route.nodes:
            nodes_by_layer[node // plane_size].append(node)

        if not self.stitch_candidates:
            return self._polygon_units(route, adjacency, nodes_by_layer)

        units: List[ColoringUnit] = []
        assigned: Dict[int, int] = {}
        counter = 0

        def new_unit(layer: int) -> ColoringUnit:
            nonlocal counter
            unit = ColoringUnit(
                unit_id=(route.net_name, counter), net_name=route.net_name, layer=layer
            )
            counter += 1
            units.append(unit)
            return unit

        for layer, nodes in sorted(nodes_by_layer.items()):
            # Horizontal runs first: consecutive columns in the same row that
            # are actually connected by route edges.
            for node in sorted(nodes):
                if node in assigned:
                    continue
                run = self._collect_run(node, adjacency, horizontal=True)
                if len(run) > 1:
                    unit = new_unit(layer)
                    for member in run:
                        if member not in assigned:
                            assigned[member] = len(units) - 1
                            unit.nodes.append(member)
            # Vertical runs over whatever is left, then isolated vertices.
            for node in sorted(nodes):
                if node in assigned:
                    continue
                run = self._collect_run(node, adjacency, horizontal=False)
                unit = new_unit(layer)
                for member in run:
                    if member not in assigned:
                        assigned[member] = len(units) - 1
                        unit.nodes.append(member)
        return [unit for unit in units if unit.nodes]

    def _polygon_units(
        self,
        route: NetRoute,
        adjacency: Dict[int, List[int]],
        nodes_by_layer: Dict[int, List[int]],
    ) -> List[ColoringUnit]:
        """Return one unit per same-layer connected component (no stitch candidates)."""
        units: List[ColoringUnit] = []
        counter = 0
        plane_size = self.grid.plane_size
        for layer, nodes in sorted(nodes_by_layer.items()):
            remaining = set(nodes)
            while remaining:
                seed = min(remaining)
                component: List[int] = []
                stack = [seed]
                seen = {seed}
                while stack:
                    node = stack.pop()
                    component.append(node)
                    for neighbor in adjacency.get(node, ()):
                        if neighbor // plane_size == layer and neighbor not in seen:
                            seen.add(neighbor)
                            stack.append(neighbor)
                remaining -= seen
                units.append(
                    ColoringUnit(
                        unit_id=(route.net_name, counter),
                        net_name=route.net_name,
                        layer=layer,
                        nodes=sorted(component),
                    )
                )
                counter += 1
        return units

    def _collect_run(
        self,
        seed: int,
        adjacency: Dict[int, List[int]],
        horizontal: bool,
    ) -> List[int]:
        """Return the maximal straight run through *seed* in one axis.

        On flat indices a same-layer column step is ``num_rows`` apart and
        a row step ``1`` apart within one column.
        """
        plane_size, num_rows = self.grid.plane_size, self.grid.num_rows

        def step_matches(a: int, b: int) -> bool:
            if a // plane_size != b // plane_size:
                return False
            if horizontal:
                return abs(a - b) == num_rows
            return abs(a - b) == 1 and a // num_rows == b // num_rows

        run = [seed]
        frontier = [seed]
        visited = {seed}
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor in visited:
                    continue
                if step_matches(node, neighbor):
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
        plane_size, num_rows = self.grid.plane_size, self.grid.num_rows
        # Per unit: the (col, row) track cell of each of its vertices.
        cells: List[List[Tuple[int, int]]] = [
            [divmod(node % plane_size, num_rows) for node in unit.nodes] for unit in units
        ]
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
            for node, (col, row) in zip(unit.nodes, cells[position]):
                net_units[node] = unit.unit_id
                owners.setdefault(col * stride + row, []).append(position)

        # Conflict edges: different nets, same layer, within Dcolor.
        conflict_pairs: Set[Tuple[UnitId, UnitId]] = set()
        for position, unit in enumerate(units):
            stride, window = windows[unit.layer]
            owners = owners_by_layer[unit.layer]
            for col, row in cells[position]:
                base = col * stride + row
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
            for position, unit in enumerate(units):
                if unit.layer != obstacle.layer:
                    continue
                if any(
                    col_lo <= col <= col_hi and row_lo <= row <= row_hi
                    for col, row in cells[position]
                ):
                    problem.conflict_edges.append((node, unit.unit_id))
        return problem

    def _adjacent_units_of(self, unit: ColoringUnit, net_units: Dict[int, UnitId]) -> List[UnitId]:
        """Return the other units of *unit*'s net planar-adjacent to its vertices.

        *net_units* maps the net's flat vertex indices to their units.
        Index +- 1 wraps across columns and +- ``num_rows`` across the
        die edge, so each step is guarded by the vertex's row / column.
        """
        grid = self.grid
        plane_size = grid.plane_size
        num_cols, num_rows = grid.num_cols, grid.num_rows
        neighbors = []
        for index in unit.nodes:
            col, row = divmod(index % plane_size, num_rows)
            candidates = []
            if col + 1 < num_cols:
                candidates.append(index + num_rows)
            if col > 0:
                candidates.append(index - num_rows)
            if row + 1 < num_rows:
                candidates.append(index + 1)
            if row > 0:
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
                dims=route.dims,
                nodes=set(route.nodes),
                node_edges=set(route.node_edges),
                routed=route.routed,
                failure_reason=route.failure_reason,
            )
            colored.add_route(clone)
        for unit in units:
            color = assignment.get(unit.unit_id)
            if color is None:
                continue
            route = colored.routes[unit.net_name]
            for node in unit.nodes:
                route.set_node_color(node, color)
        for route in colored.routes.values():
            route.recount_stitches()
        return colored
