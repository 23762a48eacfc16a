"""The 3-D routing grid graph.

Vertices live at ``(layer, col, row)`` where *col*/*row* index a uniform
track lattice covering the die.  Edges connect planar neighbours on the same
layer (preferred-direction moves are cheap, wrong-way moves are penalised)
and vertically adjacent layers through vias.

The grid also stores the mutable routing state shared between nets:

* hard blockages (obstacles, macro obstructions),
* per-vertex net occupancy (who currently owns the metal at a vertex),
* per-vertex mask colors of already routed-and-colored metal,
* pre-colored fixed shapes (colored obstacles) that constrain the TPL masks,
* history cost accumulated by the rip-up-and-reroute loop.

All routers (the plain detailed router, the Mr.TPL color-state router, and
the DAC-2012 baseline) operate on this one structure so their comparisons
run on identical inputs.

Flat vertex indexing
--------------------

The grid's native addressing scheme is the **flat index**: every vertex maps
to ``index = (layer * num_cols + col) * num_rows + row`` (see
:meth:`RoutingGrid.index_of` / :meth:`RoutingGrid.vertex_of`).  All mutable
per-vertex state lives in dense ``array``/``bytearray`` buffers indexed by
that integer, so the search engines' hot path is O(1) array reads with no
:class:`~repro.geometry.GridPoint` allocation and no dict hashing.  A
neighbour table (:meth:`RoutingGrid.neighbor_table`) stores, for every
vertex, its six neighbour indices in :data:`ALL_DIRECTIONS` order (``-1``
for out-of-bounds).  It is built on first use, by slice assignments at C
speed (:func:`build_neighbor_table`), so grids that are never searched
never pay for it; the pool executor builds it just before its first fork,
so its workers inherit it.  Routes (:class:`~repro.grid.NetRoute`) store
the same flat indices, so routers, commits, rip-up and the checkers never
convert.  ``GridPoint`` methods remain where callers hold vertices
(geometry mapping, pin access, the public mutators); state reads that
have an index form take the index only.

Sparse side tables stay dicts: the rare multi-owner occupancy case (a
short, negotiated away by rip-up & reroute) and the per-net reverse
indices of occupied and coloured vertices that make a release O(|net|).

Colour pressure holds every committed coloured vertex, so it is exactly
the ``Cost_color`` another net sees.  A net never sees its own metal
there: every router computes a route against a grid that holds none of
the net's metal, then commits it whole (:meth:`RoutingGrid.commit_route`).
A coloured vertex stamps the conflict cost onto its mask over the
``(2k+1)^2`` Chebyshev square of its layer's ``Dcolor`` reach ``k``
(:meth:`RoutingGrid.track_reach`), clipped at the die edge; non-TPL layers
carry none.  A commit stamps each vertex's final mask once and a release
unstamps them, each in one call: to the native kernel's
``stamp_pressure`` when :func:`repro.accel.get_native_kernel` offers it,
else to the same loop in Python, in the same order.  The amounts are
whole numbers (the default conflict cost is 6.0), so the sums are exact
and do not depend on the order the stamps land in.

Pin access (:meth:`RoutingGrid.pin_access_vertices`) depends only on a
pin's shapes and the blockages, so it is computed once per pin and
cached; blocking a vertex or restoring a snapshot drops the cache.

Mutations
---------

Every public mutator (``occupy``/``release_net``/``set_vertex_color``/
``add_history``/``decay_history``/``block_*``/``reset_routing_state``)
writes the buffers itself.  :meth:`RoutingGrid.commit_route` applies one
net's whole *route log* -- the ``("occupy", net_id, index)`` /
``("color", net_id, index, color)`` tuples
:func:`~repro.sched.commit.route_log` derives from the net's route -- in
one pass, and leaves the grid as the per-vertex ``occupy`` /
``set_vertex_color`` calls would.  Route logs are flat tuples of ints, so they also cross process
boundaries: the pool workers of :class:`repro.sched.BatchExecutor` catch
up by committing the logs the parent committed.  Checkpoints take the
other route: :meth:`RoutingGrid.snapshot_state` exports the buffers whole.
"""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.accel import get_native_kernel
from repro.design import Design
from repro.geometry import GridPoint, Point, Rect
from repro.tech import DesignRules, TechStack

#: Kind tags of the two route-log entries :meth:`RoutingGrid.commit_route`
#: accepts: ``(OP_OCCUPY, net_id, index)`` and
#: ``(OP_COLOR, net_id, index, color)``.
OP_OCCUPY = "occupy"
OP_COLOR = "color"


class Direction(Enum):
    """Search directions from a grid vertex (paper Alg. 2: ``{F,B,R,L,U,D}``)."""

    EAST = (0, 1, 0)    # +col
    WEST = (0, -1, 0)   # -col
    NORTH = (0, 0, 1)   # +row
    SOUTH = (0, 0, -1)  # -row
    UP = (1, 0, 0)      # +layer (via)
    DOWN = (-1, 0, 0)   # -layer (via)

    @property
    def delta(self) -> Tuple[int, int, int]:
        """Return ``(dlayer, dcol, drow)``."""
        return self.value

    @property
    def is_via(self) -> bool:
        """Return ``True`` for layer-changing moves."""
        return self in (Direction.UP, Direction.DOWN)

    @property
    def is_horizontal(self) -> bool:
        """Return ``True`` for moves along the x axis."""
        return self in (Direction.EAST, Direction.WEST)

    @property
    def is_vertical(self) -> bool:
        """Return ``True`` for moves along the y axis."""
        return self in (Direction.NORTH, Direction.SOUTH)

    @property
    def opposite(self) -> "Direction":
        """Return the reverse direction."""
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
}

#: Planar directions only (no vias); the stitch rule of Algorithm 2 applies
#: to these, because a via between layers is never a stitch.
PLANAR_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)

#: All six search directions.  The neighbour-table direction slots follow
#: this order, so ``Direction`` and small-int direction indices interconvert
#: through :data:`DIRECTION_INDEX` / :data:`INDEX_DIRECTION`.
ALL_DIRECTIONS: Tuple[Direction, ...] = PLANAR_DIRECTIONS + (Direction.UP, Direction.DOWN)

#: Number of neighbour slots per vertex in the flat neighbour table.
NUM_DIRECTIONS = 6

#: ``Direction`` -> neighbour-table slot (0..5).
DIRECTION_INDEX: Dict[Direction, int] = {d: i for i, d in enumerate(ALL_DIRECTIONS)}

#: Neighbour-table slot (0..5) -> ``Direction``.
INDEX_DIRECTION: Tuple[Direction, ...] = ALL_DIRECTIONS

#: Slots >= this index are via (layer-changing) moves.
FIRST_VIA_DIRECTION = 4

#: Inclusive planar cell window: ``(col_lo, row_lo, col_hi, row_hi)``.
CellWindow = Tuple[int, int, int, int]

#: A pin-access cache entry: ``(pin, access vertices, their flat indices)``.
_PinAccess = Tuple[object, Tuple[GridPoint, ...], Tuple[int, ...]]


def build_neighbor_table(num_layers: int, num_cols: int, num_rows: int) -> array:
    """Return the flat neighbour table of a ``num_layers x num_cols x num_rows``
    grid (layout in :meth:`RoutingGrid.neighbor_table`).

    Every direction slot is filled by slice assignments from one
    ``array`` of the vertex indices, so the O(6 V) work runs at C speed:
    north/south/up/down are one shifted copy each over the whole table,
    with the last-row north and first-row south entries reset to ``-1``
    by strided slices; east/west take one slice per layer, because the
    last/first column of a layer is a contiguous run of ``num_rows``
    vertices.
    """
    rows = num_rows
    plane = num_cols * num_rows
    count = num_layers * plane
    step = NUM_DIRECTIONS
    # From a list: about 1.6x faster than iterating the range directly.
    index = array("i", list(range(count)))
    table = array("i", [-1]) * (step * count)
    for first in range(0, count, plane):
        last = first + plane
        # East: every column but the last moves one column (rows) up.
        table[step * first : step * (last - rows) : step] = index[first + rows : last]
        # West: every column but the first moves one column down.
        table[step * (first + rows) + 1 : step * last : step] = index[first : last - rows]
    # North / south: one row up / down, then reset the grid edge rows.
    edge_row = array("i", [-1]) * (count // rows)
    table[2 : step * (count - 1) : step] = index[1:]
    table[step * (rows - 1) + 2 :: step * rows] = edge_row
    table[step + 3 :: step] = index[: count - 1]
    table[3 :: step * rows] = edge_row
    # Up / down: one plane up / down.
    table[4 : step * (count - plane) : step] = index[plane:]
    table[step * plane + 5 :: step] = index[: count - plane]
    return table


class RoutingGrid:
    """Mutable routing grid over a :class:`~repro.design.Design`.

    Parameters
    ----------
    design:
        The design whose die area, obstacles and pins seed the grid.
    pitch:
        Track pitch in DBU; a single pitch shared by all layers keeps vertex
        columns/rows aligned vertically so vias land on track crossings.
    """

    def __init__(self, design: Design, pitch: Optional[int] = None) -> None:
        self.design = design
        self.tech: TechStack = design.tech
        self.rules: DesignRules = design.tech.rules
        self.pitch = pitch if pitch is not None else self.tech.layers[0].pitch
        if self.pitch <= 0:
            raise ValueError("track pitch must be positive")

        die = design.die_area
        self.origin = Point(die.xlo, die.ylo)
        self.num_layers = self.tech.num_layers
        self.num_cols = max(2, die.width // self.pitch + 1)
        self.num_rows = max(2, die.height // self.pitch + 1)
        #: Vertices per layer plane (``num_cols * num_rows``).
        self.plane_size = self.num_cols * self.num_rows
        #: ``(num_cols, num_rows)``: what a :class:`~repro.grid.NetRoute`
        #: needs to address this grid's flat indices.
        self.route_dims: Tuple[int, int] = (self.num_cols, self.num_rows)
        num_vertices = self.num_layers * self.plane_size

        # --- Flat per-vertex state buffers (indexed by the flat index) ---
        # Hard blockages: 1 byte per vertex.
        self._blocked_buf = bytearray(num_vertices)
        # Single-owner occupancy: 0 = free, >0 = net id, -1 = multi-owner
        # (owners in the `_multi_owners` side table).
        self._owner_buf = array("i", [0]) * num_vertices
        # Final mask color of routed metal: 0 = uncolored, else color + 1.
        self._color_buf = bytearray(num_vertices)
        # History cost from rip-up & reroute negotiation.
        self._history_buf = array("d", [0.0]) * num_vertices
        # Incremental color pressure, 3 doubles per vertex: for every vertex,
        # how much conflict cost each mask would currently incur there
        # (aggregated over all colored metal within Dcolor).
        self._pressure_buf = array("d", [0.0, 0.0, 0.0]) * num_vertices

        # --- Sparse side tables ---
        # Net-name interning: ids start at 1 (0 means "free" in _owner_buf).
        self._net_ids: Dict[str, int] = {}
        self._net_names: List[str] = [""]
        # Rare multi-owner (short) case: index -> set of net ids.
        self._multi_owners: Dict[int, Set[int]] = {}
        # Reverse occupancy index so release_net is O(|net|), not O(|grid|).
        self._net_occupied: Dict[int, Set[int]] = {}
        # Indices with (potentially) non-zero history, for O(touched) decay.
        self._history_touched: Set[int] = set()
        # Per-net colored vertices: net id -> {index: color}.
        self._net_colored_vertices: Dict[int, Dict[int, int]] = {}
        # track_offsets tables per distance (pressure, incremental checkers),
        # frozen to tuples so no caller can corrupt the shared cache.
        self._track_offsets_cache: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        # Per-layer pressure reach k of a coloured vertex (-1: no pressure).
        self._stamp_reaches: Tuple[int, ...] = tuple(
            self.track_reach(self.rules.color_spacing_on(layer)) if spec.tpl else -1
            for layer, spec in enumerate(self.tech.layers)
        )
        # Pin access per pin: id(pin) -> (pin, vertices, flat indices).  The
        # pin is held so its id is never reused while the entry lives.
        self._pin_access_cache: Dict[int, _PinAccess] = {}

        # Precomputed neighbour table, built lazily on first use (grids are
        # also constructed by code that never searches them).
        self._neighbor_table: Optional[array] = None

        self._apply_design_blockages()
        self._seed_fixed_pressure()

    # ------------------------------------------------------------------
    # Flat vertex indexing
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Return the total vertex count."""
        return self.num_layers * self.plane_size

    def index_of(self, vertex: GridPoint) -> int:
        """Return the flat index of an **in-bounds** *vertex*.

        The mapping is ``(layer * num_cols + col) * num_rows + row``; callers
        holding possibly out-of-bounds vertices must check :meth:`in_bounds`
        first.
        """
        return (vertex.layer * self.num_cols + vertex.col) * self.num_rows + vertex.row

    def vertex_of(self, index: int) -> GridPoint:
        """Return the :class:`GridPoint` addressed by flat *index*."""
        layer, rem = divmod(index, self.plane_size)
        col, row = divmod(rem, self.num_rows)
        return GridPoint(layer, col, row)

    def in_bounds(self, vertex: GridPoint) -> bool:
        """Return ``True`` when *vertex* lies inside the grid."""
        return (
            0 <= vertex.layer < self.num_layers
            and 0 <= vertex.col < self.num_cols
            and 0 <= vertex.row < self.num_rows
        )

    def neighbor_table(self) -> array:
        """Return the precomputed flat neighbour table.

        Entry ``index * 6 + d`` holds the neighbour index of vertex *index*
        in direction ``ALL_DIRECTIONS[d]``, or ``-1`` when that move leaves
        the grid.  Built once, on first call, by :func:`build_neighbor_table`:
        O(6 V) work in a few slice assignments, no per-vertex Python loop.
        :class:`repro.sched.BatchExecutor` calls this before it forks pool
        workers, so they inherit the table instead of each building one.
        """
        if self._neighbor_table is None:
            self._neighbor_table = build_neighbor_table(
                self.num_layers, self.num_cols, self.num_rows
            )
        return self._neighbor_table

    # ------------------------------------------------------------------
    # Route commit
    # ------------------------------------------------------------------

    def commit_route(self, ops: Sequence[Tuple]) -> None:
        """Apply one net's route log in one pass -- the route commit.

        *ops* are one net's ``occupy`` / ``color`` entries, in order, as
        :func:`~repro.sched.commit.route_log` derives them from its route.
        The grid ends in the state that applying them one by one
        through :meth:`occupy` / :meth:`set_vertex_color` gives, but the
        occupancy takes one loop, each coloured vertex is painted once with
        its last logged mask, and the pressure of all of them is stamped
        in one call.  (A vertex the log recolours is not stamped and
        unstamped on the way; with whole-number amounts the sums are the
        same bytes.)

        Routers compute a route against a grid that holds none of the net's
        metal; a net that still holds occupancy or colours (not released
        since its last commit) raises ``ValueError``, as does a log mixing
        nets or holding other ops.  Nothing changes before the log is
        checked.
        """
        if not ops:
            return
        net_id = ops[0][1]
        if net_id in self._net_occupied or net_id in self._net_colored_vertices:
            raise ValueError(
                f"net {self._net_names[net_id]!r} already holds metal on the grid; "
                "release it before committing a route"
            )
        occupied = [op[2] for op in ops if op[0] == OP_OCCUPY and len(op) == 3]
        painted = [op for op in ops if op[0] == OP_COLOR and len(op) == 4]
        if len(occupied) + len(painted) != len(ops) or {op[1] for op in ops} != {net_id}:
            shapes = sorted({(op[0], op[1], len(op)) for op in ops})
            raise ValueError(f"not a route log of net id {net_id}: op shapes {shapes}")
        self._place(net_id, occupied)
        colors = {op[2]: op[3] for op in painted}
        if not colors:
            return
        color_buf = self._color_buf
        for index, color in colors.items():
            color_buf[index] = color + 1
        self._net_colored_vertices[net_id] = colors
        self._stamp_pressure(colors.keys(), colors.values(), self.rules.conflict_cost)

    # ------------------------------------------------------------------
    # Net-name interning
    # ------------------------------------------------------------------

    def net_id(self, net_name: str) -> int:
        """Return (creating if needed) the interned id of *net_name* (>= 1)."""
        net_id = self._net_ids.get(net_name)
        if net_id is None:
            net_id = len(self._net_names)
            self._net_ids[net_name] = net_id
            self._net_names.append(net_name)
        return net_id

    def net_id_if_known(self, net_name: str) -> int:
        """Return the interned id of *net_name*, or ``0`` when never seen."""
        return self._net_ids.get(net_name, 0)

    # ------------------------------------------------------------------
    # Geometry mapping
    # ------------------------------------------------------------------

    def physical_point(self, vertex: GridPoint) -> Point:
        """Return the DBU coordinate of *vertex*."""
        return Point(
            self.origin.x + vertex.col * self.pitch,
            self.origin.y + vertex.row * self.pitch,
        )

    def vertex_rect(self, vertex: GridPoint) -> Rect:
        """Return the metal rectangle a wire through *vertex* occupies."""
        half = max(self.rules.wire_width // 2, 0)
        point = self.physical_point(vertex)
        return Rect(point.x - half, point.y - half, point.x + half, point.y + half)

    def track_reach(self, distance: int) -> int:
        """Return the largest track distance at which vertex metal sits closer than *distance*.

        Every :meth:`vertex_rect` is the same ``extent = 2 * (wire_width // 2)``
        square on the pitch lattice, so two vertices ``cheb`` tracks apart
        (Chebyshev distance over ``col`` / ``row``) have the gap
        ``max(0, cheb * pitch - extent)``.  Hence ``gap < distance`` exactly
        when ``cheb <= (distance + extent - 1) // pitch``.  Returns ``-1``
        when *distance* is not positive: no gap is below it.
        """
        if distance <= 0:
            return -1
        extent = 2 * max(self.rules.wire_width // 2, 0)
        return (distance + extent - 1) // self.pitch

    def track_probe(self, distance: int) -> Tuple[int, Tuple[int, ...]]:
        """Return ``(stride, deltas)`` probing the vertices closer than *distance*.

        Key a layer's vertices by ``col * stride + row``; then the keys
        ``key + delta`` over *deltas* are the ``(2k+1)^2`` Chebyshev window
        of :meth:`track_reach` ``k`` around a vertex, itself included (an
        empty window when ``k < 0``).  The stride pads the row span by ``k``
        on both sides, so a probe past the die edge never aliases into the
        neighbouring column.
        """
        reach = self.track_reach(distance)
        stride = self.num_rows + 2 * max(reach, 0)
        return stride, tuple(
            dcol * stride + drow
            for dcol in range(-reach, reach + 1)
            for drow in range(-reach, reach + 1)
        )

    def track_offsets(self, distance: int) -> Tuple[Tuple[int, int, int], ...]:
        """Return the planar ``(dcol, drow, flat_delta)`` offsets closer than *distance*.

        The ``(2k+1)^2`` Chebyshev square of :meth:`track_reach` ``k``,
        ``dcol``-major, ``(0, 0, 0)`` included (empty when ``k < 0``); the
        flat delta is ``dcol * num_rows + drow``.  Color pressure and the
        incremental checkers probe with it.  Cached per distance and frozen
        to a tuple of tuples, because every consumer shares one table.
        """
        cached = self._track_offsets_cache.get(distance)
        if cached is None:
            reach = self.track_reach(distance)
            rows = self.num_rows
            cached = tuple(
                (dcol, drow, dcol * rows + drow)
                for dcol in range(-reach, reach + 1)
                for drow in range(-reach, reach + 1)
            )
            self._track_offsets_cache[distance] = cached
        return cached

    def track_window(self, rect: Rect, distance: int) -> Optional[Tuple[int, int, int, int]]:
        """Return ``(col_lo, col_hi, row_lo, row_hi)`` of vertices closer than *distance* to *rect*.

        A vertex's metal is closer than *distance* to *rect* exactly when
        its track crossing lies in ``rect.expanded(distance + half - 1)``
        (``half = wire_width // 2``), so the window is the bounds of
        :meth:`vertices_covering` on that rect, left unclamped.  ``None``
        when *distance* is not positive.
        """
        if distance <= 0:
            return None
        bloat = distance + max(self.rules.wire_width // 2, 0) - 1
        return (
            -((self.origin.x - rect.xlo + bloat) // self.pitch),
            (rect.xhi + bloat - self.origin.x) // self.pitch,
            -((self.origin.y - rect.ylo + bloat) // self.pitch),
            (rect.yhi + bloat - self.origin.y) // self.pitch,
        )

    def nearest_vertex(self, layer: int, point: Point) -> GridPoint:
        """Return the grid vertex on *layer* closest to *point* (clamped)."""
        col = round((point.x - self.origin.x) / self.pitch)
        row = round((point.y - self.origin.y) / self.pitch)
        col = min(max(col, 0), self.num_cols - 1)
        row = min(max(row, 0), self.num_rows - 1)
        return GridPoint(layer, col, row)

    def vertices_covering(self, layer: int, rect: Rect) -> List[GridPoint]:
        """Return the vertices on *layer* whose track crossing lies inside *rect*."""
        col_lo = max(0, -(-(rect.xlo - self.origin.x) // self.pitch))
        col_hi = min(self.num_cols - 1, (rect.xhi - self.origin.x) // self.pitch)
        row_lo = max(0, -(-(rect.ylo - self.origin.y) // self.pitch))
        row_hi = min(self.num_rows - 1, (rect.yhi - self.origin.y) // self.pitch)
        vertices: List[GridPoint] = []
        for col in range(col_lo, col_hi + 1):
            for row in range(row_lo, row_hi + 1):
                vertices.append(GridPoint(layer, col, row))
        return vertices

    def pin_access_vertices(self, pin: "object") -> List[GridPoint]:
        """Return unblocked grid vertices covered by *pin*'s shapes, sorted.

        If a pin shape covers no track crossing (possible for tiny off-grid
        pins), the nearest vertex to the shape centre is used instead so
        every pin stays reachable.  Served from the per-pin cache (see
        :meth:`pin_access_nodes`); the list is the caller's own.
        """
        return list(self._pin_access(pin)[1])

    def pin_access_nodes(self, pin: "object") -> Tuple[int, ...]:
        """Return the flat indices of :meth:`pin_access_vertices`, in the same order.

        Flat index order is ``GridPoint`` order, so the indices are sorted
        too.  Both come from one cache entry per pin, computed on first use
        and dropped when a vertex is blocked or a snapshot restored, so the
        rip-up loop does not recompute the access of pins that never move.
        A pin's shapes must not change once the grid has seen it.
        """
        return self._pin_access(pin)[2]

    def _pin_access(self, pin: "object") -> "_PinAccess":
        entry = self._pin_access_cache.get(id(pin))
        if entry is None or entry[0] is not pin:
            vertices = tuple(self._compute_pin_access(pin))
            entry = (pin, vertices, tuple(self.index_of(vertex) for vertex in vertices))
            self._pin_access_cache[id(pin)] = entry
        return entry

    def _compute_pin_access(self, pin: "object") -> List[GridPoint]:
        vertices: List[GridPoint] = []
        blocked = self._blocked_buf
        for shape in pin.shapes:
            covered = self.vertices_covering(shape.layer, shape.rect)
            if not covered:
                covered = [self.nearest_vertex(shape.layer, shape.rect.center)]
            vertices.extend(
                v for v in covered if self.in_bounds(v) and not blocked[self.index_of(v)]
            )
        if not vertices:
            # Every covered vertex is blocked; fall back to the raw cover so
            # the router can at least report the failure meaningfully.
            for shape in pin.shapes:
                covered = self.vertices_covering(shape.layer, shape.rect)
                if not covered:
                    covered = [self.nearest_vertex(shape.layer, shape.rect.center)]
                vertices.extend(covered)
        # Deterministic order helps reproducibility.
        return sorted(set(vertices))

    # ------------------------------------------------------------------
    # Neighbourhood and base edge costs
    # ------------------------------------------------------------------

    def neighbor(self, vertex: GridPoint, direction: Direction) -> Optional[GridPoint]:
        """Return the vertex adjacent to *vertex* in *direction*, or ``None``."""
        dlayer, dcol, drow = direction.delta
        candidate = GridPoint(vertex.layer + dlayer, vertex.col + dcol, vertex.row + drow)
        if not self.in_bounds(candidate):
            return None
        return candidate

    def neighbors(self, vertex: GridPoint) -> Iterator[Tuple[Direction, GridPoint]]:
        """Yield ``(direction, neighbor)`` pairs for all in-bounds neighbours."""
        for direction in ALL_DIRECTIONS:
            nbr = self.neighbor(vertex, direction)
            if nbr is not None:
                yield direction, nbr

    def base_edge_cost(self, vertex: GridPoint, direction: Direction) -> float:
        """Return the traditional routing cost of moving from *vertex* in *direction*.

        This is the ``Cost_trad`` term of the paper's Eq. (1): unit wirelength
        for preferred-direction moves, a wrong-way penalty for off-direction
        moves, and the via cost for layer changes.  History and occupancy
        penalties are added separately because they depend on the destination
        vertex state at query time.
        """
        if direction.is_via:
            return self.rules.via_cost
        layer = self.tech.layers[vertex.layer]
        preferred = (
            layer.is_horizontal and direction.is_horizontal
            or layer.is_vertical and direction.is_vertical
        )
        return 1.0 if preferred else self.rules.wrong_way_penalty

    def congestion_cost_index(self, index: int, net_id: int) -> float:
        """Return history + occupancy cost of placing net *net_id*'s metal at *index*."""
        cost = self.rules.history_weight * self._history_buf[index]
        owner = self._owner_buf[index]
        if owner != 0 and owner != net_id:
            # Either a different single owner, or the multi-owner sentinel
            # (at least two distinct nets, so at least one is foreign).
            cost += self.rules.occupancy_penalty
        return cost

    # ------------------------------------------------------------------
    # Blockages
    # ------------------------------------------------------------------

    def block_vertex(self, vertex: GridPoint) -> None:
        """Mark a single vertex as unusable (drops the pin-access cache)."""
        if self.in_bounds(vertex):
            self._blocked_buf[self.index_of(vertex)] = 1
            self._pin_access_cache.clear()

    def block_rect(self, layer: int, rect: Rect) -> int:
        """Block every vertex covered by *rect* on *layer*; return the count.

        Drops the pin-access cache, as :meth:`block_vertex` does.
        """
        vertices = self.vertices_covering(layer, rect)
        for vertex in vertices:
            self._blocked_buf[self.index_of(vertex)] = 1
        self._pin_access_cache.clear()
        return len(vertices)

    def is_blocked_index(self, index: int) -> bool:
        """Return ``True`` when vertex *index* is covered by a hard blockage."""
        return bool(self._blocked_buf[index])

    def blocked_buffer(self) -> bytearray:
        """Return the live blockage buffer (read-only use by search engines)."""
        return self._blocked_buf

    def _apply_design_blockages(self) -> None:
        for shape in self.design.blockage_shapes():
            if 0 <= shape.layer < self.num_layers:
                self.block_rect(shape.layer, shape.rect)

    def _seed_fixed_pressure(self) -> None:
        """Spread the color pressure of every pre-colored obstacle."""
        for obstacle in self.design.colored_obstacles():
            if 0 <= obstacle.layer < self.num_layers:
                self._add_rect_pressure(obstacle.layer, obstacle.rect, obstacle.color)

    # ------------------------------------------------------------------
    # Incremental color pressure
    # ------------------------------------------------------------------

    def interaction_radius(self, net: "object" = None, layer: Optional[int] = None) -> int:
        """Return the canonical interaction radius in DBU.

        Two pieces of metal interact -- through color pressure or the
        conflict checkers -- when their gap is strictly below
        ``max(Dcolor, min_spacing)``.  With *layer* given
        the layer's own ``Dcolor`` override applies; otherwise the maximum
        over all layers is returned, which is the sound radius for a whole
        *net*: routes may use any layer, so a per-net radius can never be
        narrower than the widest layer rule -- the *net* argument therefore
        only documents intent at the call site and does not change the
        value.  This is the one helper the incremental checkers and the
        batch scheduler share.
        """
        if layer is not None:
            return max(self.rules.color_spacing_on(layer), self.rules.min_spacing)
        return max(
            max(self.rules.color_spacing_on(index), self.rules.min_spacing)
            for index in range(self.num_layers)
        )

    def interaction_reach_cells(self, radius: int) -> int:
        """Return the grid-cell reach of interactions at *radius* DBU.

        The number of track cells a vertex's metal can interact across:
        metal rectangles extend ``wire_width // 2`` beyond the track
        crossing on both sides, so the cell reach is
        ``ceil((radius + wire_width) / pitch)`` (with a floor of one cell).
        It never falls below :meth:`track_reach` of *radius*, the exact
        reach; the batch scheduler expands net windows by it.
        """
        half = max(self.rules.wire_width // 2, 0)
        return max(1, -(-(radius + 2 * half) // self.pitch))

    def _stamp_pressure(
        self, nodes: Iterable[int], colors: Iterable[int], amount: float
    ) -> None:
        """Add *amount* to mask ``colors[i]``'s pressure around every ``nodes[i]``.

        Each stamp covers the layer's clipped ``(2k+1)^2`` square of
        :attr:`_stamp_reaches` ``k`` around the vertex, column-major, stamp
        by stamp; non-TPL layers carry no pressure.  One call to the native
        kernel's ``stamp_pressure`` when the search tier is native, else
        the same loop here, in the same order.
        """
        kernel = get_native_kernel()
        if kernel is not None:
            kernel.stamp_pressure(
                self._pressure_buf, nodes, colors, amount,
                self.num_cols, self.num_rows, self._stamp_reaches,
            )
            return
        pressure = self._pressure_buf
        reaches = self._stamp_reaches
        cols, rows, plane = self.num_cols, self.num_rows, self.plane_size
        for index, color in zip(nodes, colors):
            layer, rem = divmod(index, plane)
            reach = reaches[layer]
            if reach < 0:
                continue
            col, row = divmod(rem, rows)
            row_lo, row_hi = max(row - reach, 0), min(row + reach, rows - 1)
            for column in range(max(col - reach, 0), min(col + reach, cols - 1) + 1):
                base = 3 * (layer * cols + column) * rows + color
                for slot in range(base + 3 * row_lo, base + 3 * row_hi + 1, 3):
                    pressure[slot] += amount

    def _add_rect_pressure(self, layer: int, rect: Rect, color: int) -> None:
        """Spread the pressure of a colored rectangle (fixed obstacle) on *layer*."""
        if not (0 <= color <= 2) or not self.tech.layers[layer].tpl:
            return
        window = self.track_window(rect, self.rules.color_spacing_on(layer))
        if window is None:
            return
        col_lo, col_hi, row_lo, row_hi = window
        amount = self.rules.conflict_cost
        rows = self.num_rows
        for col in range(max(col_lo, 0), min(col_hi, self.num_cols - 1) + 1):
            for row in range(max(row_lo, 0), min(row_hi, rows - 1) + 1):
                index = (layer * self.num_cols + col) * rows + row
                self._pressure_buf[3 * index + color] += amount

    # ------------------------------------------------------------------
    # Occupancy (routed metal ownership)
    # ------------------------------------------------------------------

    def occupy(self, vertex: GridPoint, net_name: str) -> None:
        """Record that *net_name* has metal at *vertex* (out-of-bounds ignored)."""
        if self.in_bounds(vertex):
            self._place(self.net_id(net_name), (self.index_of(vertex),))

    def _place(self, net_id: int, indices: Sequence[int]) -> None:
        """Record *net_id*'s metal at every flat index of *indices*."""
        if not indices:
            return
        owner_buf = self._owner_buf
        multi_owners = self._multi_owners
        for index in indices:
            owner = owner_buf[index]
            if owner == 0:
                owner_buf[index] = net_id
            elif owner == -1:
                multi_owners[index].add(net_id)
            elif owner != net_id:
                multi_owners[index] = {owner, net_id}
                owner_buf[index] = -1
        occupied = self._net_occupied.get(net_id)
        if occupied is None:
            self._net_occupied[net_id] = set(indices)
        else:
            occupied.update(indices)

    def release_net(self, net_name: str) -> int:
        """Remove all occupancy, mask colors and color pressure of *net_name*.

        Returns the number of vertices released.  Used by rip-up & reroute.
        O(|net's metal|) thanks to the per-net reverse occupancy and
        colored-vertex indices.  Every vertex the net occupied or coloured
        falls back to the mask of its single remaining owner, or to no
        colour.
        """
        net_id = self.net_id_if_known(net_name)
        if net_id == 0:
            return 0
        released = 0
        occupied = self._net_occupied.pop(net_id, set())
        owner_buf, color_buf = self._owner_buf, self._color_buf
        for index in occupied:
            owner = owner_buf[index]
            if owner == net_id:
                owner_buf[index] = 0
                color_buf[index] = 0
            elif owner == -1:
                owners = self._multi_owners[index]
                owners.discard(net_id)
                if len(owners) == 1:
                    owner_buf[index] = owners.pop()
                    del self._multi_owners[index]
                color_buf[index] = self._owner_color_byte(index)
            else:
                continue
            released += 1
        colored_vertices = self._net_colored_vertices.pop(net_id, {})
        for index in colored_vertices:
            if index not in occupied:
                color_buf[index] = self._owner_color_byte(index)
        self._stamp_pressure(
            colored_vertices.keys(), colored_vertices.values(), -self.rules.conflict_cost
        )
        return released

    def _owner_color_byte(self, index: int) -> int:
        """Return the colour byte of *index*'s single owner's mask (``0``: none)."""
        owner = self._owner_buf[index]
        if owner <= 0:
            return 0
        color = self._net_colored_vertices.get(owner, {}).get(index)
        return 0 if color is None else color + 1

    def occupants(self, vertex: GridPoint) -> Set[str]:
        """Return the set of net names with metal at *vertex*."""
        if not self.in_bounds(vertex):
            return set()
        owner = self._owner_buf[self.index_of(vertex)]
        if owner == 0:
            return set()
        if owner == -1:
            ids = self._multi_owners[self.index_of(vertex)]
            return {self._net_names[net_id] for net_id in ids}
        return {self._net_names[owner]}

    def is_occupied_by_other_index(self, index: int, net_id: int) -> bool:
        """Return ``True`` when a net other than *net_id* has metal at *index*."""
        owner = self._owner_buf[index]
        # A multi-owner vertex holds >= 2 distinct nets, so some owner is
        # always foreign; a single owner is foreign unless it is net_id.
        return owner != 0 and owner != net_id

    def owner_buffer(self) -> array:
        """Return the live occupancy-owner buffer (read-only use by engines).

        ``0`` = free, ``> 0`` = single owner net id, ``-1`` = multi-owner
        (consult :meth:`occupants` for the names).
        """
        return self._owner_buf

    def occupied_vertices(self) -> Dict[GridPoint, Set[str]]:
        """Return a copy of the occupancy map."""
        result: Dict[GridPoint, Set[str]] = {}
        for index, owner in enumerate(self._owner_buf):
            if owner == 0:
                continue
            if owner == -1:
                names = {self._net_names[i] for i in self._multi_owners[index]}
            else:
                names = {self._net_names[owner]}
            result[self.vertex_of(index)] = names
        return result

    # ------------------------------------------------------------------
    # Colors (TPL masks) on routed metal
    # ------------------------------------------------------------------

    def set_vertex_color(self, vertex: GridPoint, net_name: str, color: int) -> None:
        """Color the routed metal of *net_name* at *vertex* with mask *color*.

        Re-coloring the same vertex for the same net is idempotent (same
        color) or replaces the previous contribution (different color), so
        the incremental pressure bookkeeping never double-counts.
        """
        if not 0 <= color <= 2:
            raise ValueError(f"TPL mask color must be 0, 1 or 2, got {color}")
        if not self.in_bounds(vertex):
            return
        index = self.index_of(vertex)
        self._color_buf[index] = color + 1
        registered = self._net_colored_vertices.setdefault(self.net_id(net_name), {})
        previous = registered.get(index)
        if previous == color:
            return
        amount = self.rules.conflict_cost
        if previous is not None:
            self._stamp_pressure((index,), (previous,), -amount)
        registered[index] = color
        self._stamp_pressure((index,), (color,), amount)

    def vertex_color_index(self, index: int) -> Optional[int]:
        """Return the mask color of routed metal at vertex *index*, if any."""
        stored = self._color_buf[index]
        return None if stored == 0 else stored - 1

    def color_costs_index(self, index: int) -> List[float]:
        """Return the ``Cost_color`` of each of the three masks at vertex *index*.

        This is the ``Cost_color`` term of Eq. (1): each committed piece of
        colored metal on the same layer within ``Dcolor`` and sharing the
        candidate mask contributes one conflict penalty.  Routers ask while
        the net they route has no metal on the grid, so the sum covers
        other nets' metal (and pre-colored obstacles) only.  Served from
        the incrementally maintained color-pressure buffer (updated on
        every colour commit and release).
        """
        base = 3 * index
        pressure = self._pressure_buf
        return [pressure[base], pressure[base + 1], pressure[base + 2]]

    def pressure_buffer(self) -> array:
        """Return the live color-pressure buffer (3 doubles per vertex)."""
        return self._pressure_buf

    # ------------------------------------------------------------------
    # History cost (negotiated congestion)
    # ------------------------------------------------------------------

    def add_history(self, vertex: GridPoint, amount: float = 1.0) -> None:
        """Increase the history cost at *vertex* (rip-up & reroute feedback)."""
        if self.in_bounds(vertex):
            index = self.index_of(vertex)
            self._history_buf[index] += amount
            self._history_touched.add(index)

    def add_history_nodes(self, nodes: Iterable[int], amount: float) -> None:
        """Increase the history cost at every flat index of *nodes* by *amount*.

        The rip-up step's per-route bump in one call, equal to one
        :meth:`add_history` per vertex.
        """
        nodes = list(nodes)
        history = self._history_buf
        for index in nodes:
            history[index] += amount
        self._history_touched.update(nodes)

    def history(self, vertex: GridPoint) -> float:
        """Return the accumulated history cost at *vertex*."""
        if not self.in_bounds(vertex):
            return 0.0
        return self._history_buf[self.index_of(vertex)]

    def history_buffer(self) -> array:
        """Return the live history buffer (read-only use by search engines)."""
        return self._history_buf

    def decay_history(self, factor: Optional[float] = None) -> None:
        """Multiply every history entry by *factor* (PathFinder-style decay).

        When *factor* is ``None`` the :attr:`DesignRules.history_decay`
        factor applies -- the value the rip-up-and-reroute loops pass.
        """
        if factor is None:
            factor = self.rules.history_decay
        history = self._history_buf
        dead: List[int] = []
        for index in self._history_touched:
            value = history[index] * factor
            if value < 1e-9:
                history[index] = 0.0
                dead.append(index)
            else:
                history[index] = value
        self._history_touched.difference_update(dead)

    # ------------------------------------------------------------------
    # Bulk state management
    # ------------------------------------------------------------------

    def reset_routing_state(self) -> None:
        """Drop all routing results (occupancy, colors, history) but keep blockages."""
        num_vertices = self.num_vertices
        self._owner_buf = array("i", [0]) * num_vertices
        self._color_buf = bytearray(num_vertices)
        self._history_buf = array("d", [0.0]) * num_vertices
        self._pressure_buf = array("d", [0.0, 0.0, 0.0]) * num_vertices
        self._multi_owners.clear()
        self._net_occupied.clear()
        self._history_touched.clear()
        self._net_colored_vertices.clear()
        self._seed_fixed_pressure()

    # ------------------------------------------------------------------
    # Dense state snapshots (checkpoints)
    # ------------------------------------------------------------------

    #: Schema tag of :meth:`snapshot_state` documents.
    SNAPSHOT_FORMAT = "repro-grid-snapshot-v4"

    def snapshot_state(self) -> Dict[str, object]:
        """Export the complete mutable grid state as a flat document.

        The document is JSON- and pickle-clean (dense buffers as base64
        strings, sparse side tables as sorted pair lists) and, fed back
        through :meth:`restore_state` on a fresh grid over the same design,
        reproduces every buffer and side table **bit-identically** --
        including the exact IEEE-754 pressure/history doubles, which travel
        as raw bytes rather than decimal round-trips.  Campaign checkpoints
        (:mod:`repro.io.checkpoint_io`) hold exactly this document.
        """
        from base64 import b64encode

        def encode(buffer) -> str:
            raw = buffer if isinstance(buffer, (bytes, bytearray)) else buffer.tobytes()
            return b64encode(bytes(raw)).decode("ascii")

        return {
            "format": self.SNAPSHOT_FORMAT,
            "design_name": self.design.name,
            "dims": [self.num_layers, self.num_cols, self.num_rows],
            "pitch": self.pitch,
            "blocked": encode(self._blocked_buf),
            "owner": encode(self._owner_buf),
            "color": encode(self._color_buf),
            "history": encode(self._history_buf),
            "pressure": encode(self._pressure_buf),
            "net_names": list(self._net_names[1:]),
            "multi_owners": [
                [index, sorted(owners)]
                for index, owners in sorted(self._multi_owners.items())
            ],
            "net_occupied": [
                [net_id, sorted(indices)]
                for net_id, indices in sorted(self._net_occupied.items())
            ],
            "history_touched": sorted(self._history_touched),
            "net_colored": [
                [net_id, [[index, color] for index, color in sorted(registered.items())]]
                for net_id, registered in sorted(self._net_colored_vertices.items())
            ],
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Overwrite this grid's mutable state with a :meth:`snapshot_state` doc.

        The grid must be built over the same design geometry (dimensions and
        pitch are validated).
        """
        if snapshot.get("format") != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a {self.SNAPSHOT_FORMAT} document "
                f"(format={snapshot.get('format')!r})"
            )
        dims = list(snapshot["dims"])
        if dims != [self.num_layers, self.num_cols, self.num_rows]:
            raise ValueError(
                f"snapshot dimensions {dims} do not match this grid "
                f"{[self.num_layers, self.num_cols, self.num_rows]}"
            )
        if snapshot["pitch"] != self.pitch:
            raise ValueError(
                f"snapshot pitch {snapshot['pitch']} does not match {self.pitch}"
            )
        from base64 import b64decode

        num_vertices = self.num_vertices
        blocked = bytearray(b64decode(snapshot["blocked"]))
        owner = array("i")
        owner.frombytes(b64decode(snapshot["owner"]))
        color = bytearray(b64decode(snapshot["color"]))
        history = array("d")
        history.frombytes(b64decode(snapshot["history"]))
        pressure = array("d")
        pressure.frombytes(b64decode(snapshot["pressure"]))
        if (
            len(blocked) != num_vertices
            or len(owner) != num_vertices
            or len(color) != num_vertices
            or len(history) != num_vertices
            or len(pressure) != 3 * num_vertices
        ):
            raise ValueError("snapshot buffer sizes do not match this grid")
        self._blocked_buf = blocked
        self._pin_access_cache.clear()
        self._owner_buf = owner
        self._color_buf = color
        self._history_buf = history
        self._pressure_buf = pressure
        self._net_names = [""] + [str(name) for name in snapshot["net_names"]]
        self._net_ids = {name: i for i, name in enumerate(self._net_names) if i}
        self._multi_owners = {
            int(index): set(owners) for index, owners in snapshot["multi_owners"]
        }
        self._net_occupied = {
            int(net_id): set(indices) for net_id, indices in snapshot["net_occupied"]
        }
        self._history_touched = set(snapshot["history_touched"])
        self._net_colored_vertices = {
            int(net_id): {int(index): color for index, color in registered}
            for net_id, registered in snapshot["net_colored"]
        }

    def snapshot_statistics(self) -> Dict[str, int]:
        """Return grid occupancy statistics (used by reports and tests)."""
        history = self._history_buf
        return {
            "vertices": self.num_vertices,
            "blocked": sum(self._blocked_buf),
            "occupied": sum(1 for owner in self._owner_buf if owner != 0),
            "colored": sum(1 for stored in self._color_buf if stored),
            "history_entries": sum(
                1 for index in self._history_touched if history[index] != 0.0
            ),
        }

