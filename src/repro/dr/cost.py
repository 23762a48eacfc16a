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
  out-of-guide memo so the search hot path performs no geometry work.

Both surfaces add the same terms in the same order, so they produce
bit-identical costs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry import GridPoint
from repro.gr.guide import GuideSet
from repro.grid import ALL_DIRECTIONS, Direction, RoutingGrid


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
    def from_targets(cls, targets: Iterable[GridPoint]) -> Optional["TargetBounds"]:
        """Build bounds from a target set; ``None`` for an empty set."""
        targets = list(targets)
        if not targets:
            return None
        return cls(
            min_layer=min(t.layer for t in targets),
            max_layer=max(t.layer for t in targets),
            min_col=min(t.col for t in targets),
            max_col=max(t.col for t in targets),
            min_row=min(t.row for t in targets),
            max_row=max(t.row for t in targets),
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
        # Per-net memo of the out-of-guide penalty per flat index.  Guides
        # are immutable once built, so entries never invalidate.
        self._guide_memos: Dict[str, Dict[int, float]] = {}
        # Per-net flat guide-penalty tables, computed eagerly from the guide
        # rectangles; the buffer-protocol expand callbacks index these
        # instead of hashing a dict per successor.  Entries never
        # invalidate either.  All unguided nets share one all-zero table
        # (read-only by contract), so only guided nets pay O(V) memory.
        self._guide_tables: Dict[str, List[float]] = {}
        self._unguided_table: Optional[List[float]] = None
        # Cached grid-axis -> gcell-axis run decomposition (see
        # :meth:`_gcell_axis_runs`).
        self._gcell_runs: Optional[Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, int]]]] = None
        # ``array('d')`` twins of the base-cost and guide tables for the
        # native kernel (C reads them through the buffer protocol; the
        # Python expand closures keep indexing the plain lists, whose reads
        # return cached float objects).  Built once, never invalidated.
        self._guide_arrs: Dict[str, array] = {}
        self._unguided_arr: Optional[array] = None
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

    def guide_memo(self, net_name: str) -> Dict[int, float]:
        """Return the mutable per-net ``index -> out-of-guide penalty`` memo.

        Search adapters fill it lazily while expanding; entries persist
        across the searches of one net (and across rip-up & reroute, since
        the guide region of a net never changes).
        """
        memo = self._guide_memos.get(net_name)
        if memo is None:
            memo = {}
            self._guide_memos[net_name] = memo
        return memo

    def _gcell_axis_runs(
        self,
    ) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, int]]]:
        """Return ``(col runs by gx, row runs by gy)`` for the guide gcells.

        Each run is the contiguous ``(lo, hi)`` range of grid columns/rows
        whose physical track coordinate maps into that gcell column/row --
        computed through :meth:`GCellGrid.cell_of_point`'s exact clamped
        arithmetic (the axes are independent), so table entries agree
        bitwise with per-point ``covers_point`` queries.
        """
        if self._gcell_runs is not None:
            return self._gcell_runs
        gcells = self.guides.gcell_grid
        grid = self.grid
        size = gcells.gcell_size

        def axis_runs(count: int, grid_origin: int, gcell_origin: int, limit: int):
            runs: Dict[int, Tuple[int, int]] = {}
            for ordinal in range(count):
                coordinate = grid_origin + ordinal * grid.pitch
                bucket = min(max((coordinate - gcell_origin) // size, 0), limit - 1)
                lo, _hi = runs.get(bucket, (ordinal, ordinal))
                runs[bucket] = (lo, ordinal)
            return runs

        self._gcell_runs = (
            axis_runs(grid.num_cols, grid.origin.x, gcells.origin.x, gcells.num_gx),
            axis_runs(grid.num_rows, grid.origin.y, gcells.origin.y, gcells.num_gy),
        )
        return self._gcell_runs

    def guide_penalty_table(self, net_name: str) -> List[float]:
        """Return the per-net flat ``index -> out-of-guide penalty`` table.

        Built once per net directly from the guide's gcells -- every vertex
        inside a guide cell is zeroed with slice assignments, everything
        else keeps the out-of-guide penalty -- and cached for the life of
        the model, since a net's guide region never changes.  A plain list
        indexed by flat vertex index, so the expand hot path pays one list
        read per step with no dict hash and no geometry work.
        """
        table = self._guide_tables.get(net_name)
        if table is not None:
            return table
        grid = self.grid
        num_vertices = grid.num_vertices
        guide = self.guides.guide_of(net_name) if self.guides is not None else None
        if guide is None or not guide.cells:
            # Unguided nets are everywhere in-guide (no penalty); they all
            # share one zero table since callers only read it.
            if self._unguided_table is None:
                self._unguided_table = [0.0] * num_vertices
            return self._unguided_table
        table = [self.rules.out_of_guide_penalty] * num_vertices
        col_runs, row_runs = self._gcell_axis_runs()
        cols, rows = grid.num_cols, grid.num_rows
        num_layers = grid.num_layers
        zero_rows: Dict[int, List[float]] = {}
        for cell in guide.cells:
            if not 0 <= cell.layer < num_layers:
                continue
            col_span = col_runs.get(cell.gx)
            row_span = row_runs.get(cell.gy)
            if col_span is None or row_span is None:
                continue
            row_lo, row_hi = row_span
            span = row_hi - row_lo + 1
            zeros = zero_rows.get(span)
            if zeros is None:
                zeros = [0.0] * span
                zero_rows[span] = zeros
            layer_base = cell.layer * cols
            for col in range(col_span[0], col_span[1] + 1):
                base = (layer_base + col) * rows + row_lo
                table[base : base + span] = zeros
        self._guide_tables[net_name] = table
        return table

    # -- reference maps (inspection only; no search path reads them) -----

    def congestion_snapshot(self, net_id: int) -> List[float]:
        """Return the per-vertex congestion cost *net_id* sees, uncached.

        One :meth:`RoutingGrid.congestion_cost_index` per vertex: history
        plus the occupancy penalty where another net owns the vertex.  The
        search tiers compute this term inline per successor; the map exists
        for inspection and tracing.
        """
        congestion_at = self.grid.congestion_cost_index
        return [congestion_at(index, net_id) for index in range(self.grid.num_vertices)]

    def color_pressure_snapshot(self, net_id: int) -> List[float]:
        """Return the ``gamma``-weighted per-mask pressure map, uncached.

        ``3 * num_vertices`` entries built from :meth:`color_costs_index`:
        the grid's pressure minus *net_id*'s own contribution, clamped at
        zero.  Like :meth:`congestion_snapshot`, a reference map only.
        """
        table: List[float] = []
        for index in range(self.grid.num_vertices):
            table.extend(self.color_costs_index(index, net_id))
        return table

    # -- array('d') twins for the native kernel -------------------------

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

    def color_pressure_snapshot_flat(self, net_id: int) -> array:
        """Return :meth:`color_pressure_snapshot` as an ``array('d')`` buffer."""
        return array("d", self.color_pressure_snapshot(net_id))

    def guide_penalty_flat(self, net_name: str) -> array:
        """Return :meth:`guide_penalty_table` as an ``array('d')`` buffer.

        Cached for the life of the model like the list variant (guide
        regions never change); unguided nets share one all-zero buffer.
        """
        cached = self._guide_arrs.get(net_name)
        if cached is not None:
            return cached
        table = self.guide_penalty_table(net_name)
        if table is self._unguided_table:
            if self._unguided_arr is None:
                self._unguided_arr = array("d", table)
            return self._unguided_arr
        buffer = array("d", table)
        self._guide_arrs[net_name] = buffer
        return buffer

    def out_of_guide_cost_index(self, index: int, net_name: str) -> float:
        """Compute (uncached) the out-of-guide penalty at flat *index*."""
        if self.guides is None:
            return 0.0
        vertex = self.grid.vertex_of(index)
        point = self.grid.physical_point(vertex)
        if self.guides.covers_point(net_name, vertex.layer, point):
            return 0.0
        return self.rules.out_of_guide_penalty

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
        memo = self.guide_memo(net_name)
        guide = memo.get(neighbor_index)
        if guide is None:
            guide = self.out_of_guide_cost_index(neighbor_index, net_name)
            memo[neighbor_index] = guide
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
        cost = self.grid.base_edge_cost(vertex, direction)
        cost += self.grid.congestion_cost(neighbor, net_name)
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

    def color_costs_index(self, index: int, net_id: int) -> List[float]:
        """Return ``gamma * Cost_color`` for each of the three masks at *index*."""
        return [self.rules.gamma * c for c in self.grid.color_costs_index(index, net_id)]

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
