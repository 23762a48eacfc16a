"""The shared detailed-routing cost model and search heuristics.

Implements the ``Cost_trad`` term of the paper's Eq. (1) plus the penalties
every negotiation-based detailed router applies: accumulated history cost,
soft occupancy (short) cost, and the out-of-guide penalty from the ISPD
contest cost model.  The stitch and color terms are layered on top by the
TPL-aware routers; the plain router uses this model unchanged.

The model exposes two equivalent query surfaces:

* :class:`~repro.geometry.GridPoint` methods, kept for tests and
  evaluation, and
* flat-index variants (``*_index``) used by :class:`repro.search.SearchCore`
  adapters, backed by a precomputed per-layer base-cost table and a per-net
  byte mask over guide gcells, read through one vertex -> gcell-slot map
  (:class:`~repro.gr.guide.GuideTables`, which the DRC checker's
  out-of-guide count reads too), so the search hot path performs no
  geometry work.

Both surfaces add the same terms in the same order, so they produce
bit-identical costs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Collection, Iterable, List, Optional

from repro.geometry import GridPoint
from repro.gr.guide import GuideSet, GuideTables
from repro.grid import ALL_DIRECTIONS, Direction, RoutingGrid
from repro.native.spec import MODE_COLOR_STATE, MODE_MASK_EXPANDED, MODE_TRADITIONAL


@dataclass(frozen=True)
class TargetBounds:
    """Bounding box of a target vertex set, used for the A* lower bound.

    The distance from a vertex to the box is an admissible lower bound on the
    distance to the nearest target, and it is O(1) to evaluate regardless of
    how many target vertices the search has (a multi-pin net can expose
    dozens of access vertices at once).
    """

    min_layer: int
    max_layer: int
    min_col: int
    max_col: int
    min_row: int
    max_row: int

    @classmethod
    def from_nodes(
        cls, nodes: Collection[int], dims: "tuple[int, int]"
    ) -> Optional["TargetBounds"]:
        """Build bounds from flat vertex indices on a grid of *dims*
        ``(num_cols, num_rows)``; ``None`` for no nodes.

        The layer is an index's most significant digit, so the least and
        greatest index carry the layer bounds.
        """
        if not nodes:
            return None
        num_cols, num_rows = dims
        plane = num_cols * num_rows
        cols = [node % plane // num_rows for node in nodes]
        rows = [node % num_rows for node in nodes]
        return cls(
            min(nodes) // plane, max(nodes) // plane, min(cols), max(cols), min(rows), max(rows)
        )

    def components_from(self, vertex: GridPoint) -> "tuple[float, float]":
        """Return ``(planar_distance, layer_distance)`` from *vertex* to the box."""
        dcol = max(self.min_col - vertex.col, 0, vertex.col - self.max_col)
        drow = max(self.min_row - vertex.row, 0, vertex.row - self.max_row)
        dlayer = max(self.min_layer - vertex.layer, 0, vertex.layer - self.max_layer)
        return float(dcol + drow), float(dlayer)


class CostModel:
    """Edge-cost evaluator bound to one grid and (optionally) a guide set."""

    def __init__(self, grid: RoutingGrid, guides: Optional[GuideSet] = None) -> None:
        self.grid = grid
        self.rules = grid.rules
        self.guides = guides
        self._base_cost_table: Optional[List[List[float]]] = None
        self.guide_tables = GuideTables(grid, guides)
        # ``array('d')`` twin of the base-cost table for the native kernel
        # (C reads it through the buffer protocol; the Python expand
        # closures keep indexing the plain lists).  Built once.
        self._base_cost_flat: Optional[array] = None

    # ------------------------------------------------------------------
    # Flat-index query surface (search hot path)
    # ------------------------------------------------------------------

    def base_cost_table(self) -> List[List[float]]:
        """Return ``table[layer][direction_index] -> Cost_trad`` base cost.

        Mirrors :meth:`RoutingGrid.base_edge_cost` for every layer and all
        six :data:`~repro.grid.ALL_DIRECTIONS` slots; built once, lazily.
        """
        if self._base_cost_table is None:
            table: List[List[float]] = []
            for layer in self.grid.tech.layers[: self.grid.num_layers]:
                row: List[float] = []
                for direction in ALL_DIRECTIONS:
                    if direction.is_via:
                        row.append(self.rules.via_cost)
                    else:
                        preferred = (
                            layer.is_horizontal and direction.is_horizontal
                            or layer.is_vertical and direction.is_vertical
                        )
                        row.append(1.0 if preferred else self.rules.wrong_way_penalty)
                table.append(row)
            self._base_cost_table = table
        return self._base_cost_table

    def guide_slot_map(self) -> array:
        """Return the vertex -> gcell-slot map of :class:`GuideTables`.

        Built once per model and shared by every net;
        ``guide_mask(net)[slot_of[index]]`` says whether *index* lies inside
        the net's guide.
        """
        return self.guide_tables.slot_map()

    def guide_mask(self, net_name: str) -> bytes:
        """Return the net's guide as one byte per gcell slot (1 = in guide).

        Indexed through :meth:`guide_slot_map`; a vertex's out-of-guide
        penalty is ``(out_of_guide_penalty, 0.0)[mask[slot_of[index]]]``.
        """
        return self.guide_tables.mask(net_name)

    # -- reference maps (inspection only; no search path reads them) -----

    def guide_penalty_table(self, net_name: str) -> List[float]:
        """Return the per-vertex out-of-guide penalty of *net_name*, uncached.

        Expands :meth:`guide_mask` through :meth:`guide_slot_map`; the
        search tiers perform the same lookup inline per successor.
        """
        costs = (self.rules.out_of_guide_penalty, 0.0)
        mask = self.guide_mask(net_name)
        return [costs[mask[slot]] for slot in self.guide_slot_map()]

    def congestion_snapshot(self, net_id: int) -> List[float]:
        """Return the per-vertex congestion cost *net_id* sees, uncached.

        One :meth:`RoutingGrid.congestion_cost_index` per vertex: history
        plus the occupancy penalty where another net owns the vertex.  The
        search tiers compute this term inline per successor; the map exists
        for inspection and tracing.
        """
        congestion_at = self.grid.congestion_cost_index
        return [congestion_at(index, net_id) for index in range(self.grid.num_vertices)]

    def color_pressure_snapshot(self) -> List[float]:
        """Return the ``gamma``-weighted per-mask pressure map, uncached.

        ``3 * num_vertices`` entries built from :meth:`color_costs_index`.
        Like :meth:`congestion_snapshot`, a reference map only.
        """
        table: List[float] = []
        for index in range(self.grid.num_vertices):
            table.extend(self.color_costs_index(index))
        return table

    # -- array('d') twins ------------------------------------------------

    def base_cost_flat(self) -> array:
        """Return :meth:`base_cost_table` flattened to one ``array('d')``.

        ``num_layers * 6`` entries, row-major by layer; built once.
        """
        if self._base_cost_flat is None:
            flat = array("d")
            for row in self.base_cost_table():
                flat.extend(row)
            self._base_cost_flat = flat
        return self._base_cost_flat

    def congestion_snapshot_flat(self, net_id: int) -> array:
        """Return :meth:`congestion_snapshot` as an ``array('d')`` buffer."""
        return array("d", self.congestion_snapshot(net_id))

    def color_pressure_snapshot_flat(self) -> array:
        """Return :meth:`color_pressure_snapshot` as an ``array('d')`` buffer."""
        return array("d", self.color_pressure_snapshot())

    def guide_penalty_flat(self, net_name: str) -> array:
        """Return :meth:`guide_penalty_table` as an ``array('d')`` buffer."""
        return array("d", self.guide_penalty_table(net_name))

    def out_of_guide_cost_index(self, index: int, net_name: str) -> float:
        """Compute (uncached) the out-of-guide penalty at flat *index*."""
        if self.guides is None:
            return 0.0
        vertex = self.grid.vertex_of(index)
        point = self.grid.physical_point(vertex)
        if self.guides.covers_point(net_name, vertex.layer, point):
            return 0.0
        return self.rules.out_of_guide_penalty

    def target_floor(
        self, net_name: str, net_id: int, nodes: Iterable[int], mode: int = MODE_TRADITIONAL
    ) -> float:
        """Return the least entry cost beyond the base step of any of *nodes*.

        The ``target_floor`` of :meth:`repro.search.SearchCore.run`: every
        edge into one of the search's accepted target *nodes* costs its
        base step (at least the A* bound of its tail) plus the target's
        ``alpha * (history_weight * history + occupancy_penalty where
        another net owns it + out-of-guide penalty)`` and the colour term
        of the expansion *mode* (a ``repro.native.spec.MODE_*``): none for
        the traditional cost, the least ``gamma * pressure`` over the three
        masks for colour states, and the node's own mask's for the
        mask-expanded graph, whose nodes are ``vertex * 3 + mask``.
        Returns 0.0 for no nodes.
        """
        grid = self.grid
        rules = self.rules
        history = grid.history_buffer()
        owner = grid.owner_buffer()
        pressure = grid.pressure_buffer()
        guide_mask = self.guide_mask(net_name)
        slot_of = self.guide_slot_map()
        stride = 3 if mode == MODE_MASK_EXPANDED else 1
        floor = None
        for node in nodes:
            vertex = node // stride
            entry = rules.history_weight * history[vertex]
            holder = owner[vertex]
            if holder != 0 and holder != net_id:
                entry += rules.occupancy_penalty
            if not guide_mask[slot_of[vertex]]:
                entry += rules.out_of_guide_penalty
            entry = rules.alpha * entry
            if mode == MODE_COLOR_STATE:
                entry += rules.gamma * min(pressure[3 * vertex : 3 * vertex + 3])
            elif mode == MODE_MASK_EXPANDED:
                entry += rules.gamma * pressure[node]
            if floor is None or entry < floor:
                floor = entry
        return 0.0 if floor is None else floor

    def step_cost_index(
        self, layer: int, direction_index: int, neighbor_index: int,
        net_name: str, net_id: int,
    ) -> float:
        """Return ``alpha * Cost_trad`` of one step in flat-index space.

        The reference implementation of the arithmetic the search adapters
        inline: ``alpha * ((base + congestion) + guide)``, with the addition
        order kept identical everywhere so results are bit-reproducible.
        """
        base = self.base_cost_table()[layer][direction_index]
        congestion = self.grid.congestion_cost_index(neighbor_index, net_id)
        guide = self.out_of_guide_cost_index(neighbor_index, net_name)
        cost = base + congestion
        cost = cost + guide
        return self.rules.alpha * cost

    # ------------------------------------------------------------------
    # GridPoint query surface (tests, evaluation)
    # ------------------------------------------------------------------

    def traditional_cost(
        self,
        vertex: GridPoint,
        direction: Direction,
        neighbor: GridPoint,
        net_name: str,
    ) -> float:
        """Return ``Cost_trad`` of stepping ``vertex -> neighbor`` for *net_name*.

        Components: base wirelength / wrong-way / via cost, history cost and
        soft occupancy at the destination, and the out-of-guide penalty when
        the destination leaves the net's GR guide.
        """
        grid = self.grid
        cost = grid.base_edge_cost(vertex, direction)
        if grid.in_bounds(neighbor):
            cost += grid.congestion_cost_index(
                grid.index_of(neighbor), grid.net_id_if_known(net_name)
            )
        cost += self.out_of_guide_cost(neighbor, net_name)
        return cost

    def out_of_guide_cost(self, vertex: GridPoint, net_name: str) -> float:
        """Return the penalty for *vertex* lying outside the net's guide."""
        if self.guides is None:
            return 0.0
        point = self.grid.physical_point(vertex)
        if self.guides.covers_point(net_name, vertex.layer, point):
            return 0.0
        return self.rules.out_of_guide_penalty

    def stitch_cost(self) -> float:
        """Return ``beta * stitch_cost``: the weighted cost of one stitch."""
        return self.rules.beta * self.rules.stitch_cost

    def color_costs_index(self, index: int) -> List[float]:
        """Return ``gamma * Cost_color`` for each of the three masks at *index*."""
        return [self.rules.gamma * c for c in self.grid.color_costs_index(index)]

    def heuristic(self, vertex: GridPoint, targets: list) -> float:
        """Return an admissible lower bound from *vertex* to the nearest target.

        Uses planar Manhattan distance plus the via distance scaled by the via
        cost; both are exact lower bounds on the remaining traditional cost,
        so A* with this heuristic returns minimum-cost paths.
        """
        if not targets:
            return 0.0
        best = float("inf")
        for target in targets:
            planar = abs(vertex.col - target.col) + abs(vertex.row - target.row)
            vias = abs(vertex.layer - target.layer) * self.rules.via_cost
            best = min(best, planar + vias)
        return self.rules.alpha * best

    def heuristic_bounds(self, vertex: GridPoint, bounds: Optional[TargetBounds]) -> float:
        """Return the O(1) admissible lower bound towards a target bounding box."""
        if bounds is None:
            return 0.0
        planar, layers = bounds.components_from(vertex)
        return self.rules.alpha * (planar + layers * self.rules.via_cost)
