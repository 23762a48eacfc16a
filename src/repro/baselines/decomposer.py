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
   scores decomposition and routing-time coloring identically.  The
   result runs that full scan on the first read of its conflict report,
   not inside :meth:`LayoutDecomposer.decompose`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Set, Tuple

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
    design: Design
    grid: RoutingGrid
    runtime_seconds: float = 0.0

    @cached_property
    def conflict_report(self) -> ConflictReport:
        """Return the full-scan conflict report of the colored solution.

        The scan runs on the first read and is cached.
        """
        return ConflictChecker(self.design, self.grid).check(self.solution)

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
        elapsed = timer.stop()
        _LOG.info(
            "decomposed %d units with %d stitches", len(units), colored.total_stitches()
        )
        return DecompositionResult(
            solution=colored,
            assignment=assignment,
            units=units,
            design=self.design,
            grid=self.grid,
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
        """Build the conflict/stitch coloring problem over *units*.

        Both edge lists come out sorted.  Pairs are collected as integer
        keys ``low * n + high`` over the units' positions in unit-id order,
        so the sorted keys decode to the sorted ``(low_id, high_id)`` pairs.
        """
        problem = ColoringProblem(
            conflict_weight=self.conflict_weight, stitch_weight=self.stitch_weight
        )
        # Rank -> position in *units*, in unit-id order.
        order = sorted(range(len(units)), key=lambda position: units[position].unit_id)
        ranked = [units[position] for position in order]
        count = len(ranked)
        # Per net: flat vertex index -> rank of the unit holding that vertex.
        rank_of_index: Dict[str, Dict[int, int]] = defaultdict(dict)
        plane_size, num_rows = self.grid.plane_size, self.grid.num_rows
        # Per unit position: the (col, row) track cell of each of its vertices.
        cells: List[List[Tuple[int, int]]] = [
            [divmod(node % plane_size, num_rows) for node in unit.nodes] for unit in units
        ]
        # Per layer: track key -> ranks of the units covering that vertex.
        owners_by_layer: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
        windows: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        for rank, unit in enumerate(ranked):
            if unit.layer not in windows:
                windows[unit.layer] = self.grid.track_probe(
                    self.rules.color_spacing_on(unit.layer)
                )
            stride = windows[unit.layer][0]
            owners = owners_by_layer[unit.layer]
            net_ranks = rank_of_index[unit.net_name]
            for node, (col, row) in zip(unit.nodes, cells[order[rank]]):
                net_ranks[node] = rank
                owners.setdefault(col * stride + row, []).append(rank)

        def decode(keys: Set[int]) -> List[Tuple[UnitId, UnitId]]:
            return [
                (ranked[key // count].unit_id, ranked[key % count].unit_id)
                for key in sorted(keys)
            ]

        # Conflict edges: different nets, same layer, within Dcolor.
        conflict_keys: Set[int] = set()
        for rank, unit in enumerate(ranked):
            stride, window = windows[unit.layer]
            owners = owners_by_layer[unit.layer]
            for col, row in cells[order[rank]]:
                base = col * stride + row
                for delta in window:
                    for other in owners.get(base + delta, ()):
                        # Lower ranks already added this pair from their side.
                        if other > rank and ranked[other].net_name != unit.net_name:
                            conflict_keys.add(rank * count + other)
        problem.conflict_edges = decode(conflict_keys)

        # Stitch edges: same net, same layer, adjacent units (share a routed
        # edge).  A stitch pair is never a (different-net) conflict pair.
        stitch_keys: Set[int] = set()
        for rank, unit in enumerate(ranked):
            for other in self._adjacent_ranks(unit, rank_of_index[unit.net_name]):
                if other != rank:
                    low, high = (rank, other) if rank < other else (other, rank)
                    stitch_keys.add(low * count + high)
        problem.stitch_edges = decode(stitch_keys)

        # Pre-colored obstacles become fixed pseudo-units.
        for index, (name, obstacle) in enumerate(self.design.fixed_color_nets()):
            node: UnitId = (name, index)
            problem.fixed_colors[node] = obstacle.color
            window = self.grid.track_window(
                obstacle.rect, self.rules.color_spacing_on(obstacle.layer)
            )
            if window is None:
                continue
            if obstacle.layer not in windows:
                continue  # no unit on the obstacle's layer
            stride = windows[obstacle.layer][0]
            owners = owners_by_layer[obstacle.layer]
            col_lo, col_hi, row_lo, row_hi = window
            row_lo, row_hi = max(row_lo, 0), min(row_hi, self.grid.num_rows - 1)
            # The units with a vertex in the window, in *units* order.
            positions: Set[int] = set()
            for col in range(max(col_lo, 0), min(col_hi, self.grid.num_cols - 1) + 1):
                for key in range(col * stride + row_lo, col * stride + row_hi + 1):
                    positions.update(order[rank] for rank in owners.get(key, ()))
            problem.conflict_edges.extend(
                (node, units[position].unit_id) for position in sorted(positions)
            )
        return problem

    def _adjacent_ranks(self, unit: ColoringUnit, net_ranks: Dict[int, int]) -> List[int]:
        """Return the ranks of the units holding a planar neighbour of *unit*'s vertices.

        *net_ranks* maps the net's flat vertex indices to their units'
        ranks, so *unit*'s own rank may be among them.  Index +- 1 wraps
        across columns and +- ``num_rows`` across the die edge, so each
        step is guarded by the vertex's row / column.
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
                other = net_ranks.get(candidate)
                if other is not None:
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
        return colored
