"""Color-state searching (paper Algorithm 2).

The search is a multi-source Dijkstra over the routing grid where every
label additionally carries a :class:`~repro.tpl.color_state.ColorState`.
For every expansion direction the cost of each of the three masks is
evaluated (traditional cost + color conflict cost + a stitch cost when the
mask is not in the current vertex's color state and the move is planar);
the minimum over masks becomes the edge cost and the set of masks achieving
that minimum becomes the neighbour's color state.  Keeping the full set --
rather than committing to one mask -- is the paper's key idea: it widens the
solution space so the backtrace can later pick whichever mask avoids
conflicts best.

Two implementation notes:

* :class:`ColorStateSearch` is a thin adapter over the shared
  :class:`repro.search.SearchCore`: the color state travels as the 3-bit
  ``aux`` integer of the core's labels, and all grid state is read from the
  flat index buffers.
* A re-visit of a vertex at **equal** cost whose color state holds masks the
  stored state lacks *merges* the two states (bitwise OR) instead of being
  discarded, and the vertex is re-expanded if needed -- so the backtrace
  keeps the full mask freedom of every cost-optimal predecessor path.  (The
  seed implementation dropped such revisits, silently narrowing Alg. 2's
  state space.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dr.cost import CostModel, TargetBounds
from repro.geometry import GridPoint
from repro.grid import INDEX_DIRECTION, NUM_DIRECTIONS, Direction, RoutingGrid
from repro.native.spec import MODE_COLOR_STATE, attach_native_spec
from repro.search import CoreResult, RouteScopedExpand, SearchCore
from repro.tpl.color_state import ColorState

#: Costs within this relative tolerance of the minimum keep their mask in the
#: color state; an exact equality test would make the state collapse to a
#: single color on any floating-point noise.
_COST_TOLERANCE = 1e-9


@dataclass
class VertexLabel:
    """Search label of one grid vertex."""

    cost: float
    color_state: ColorState
    parent: Optional[GridPoint] = None
    parent_direction: Optional[Direction] = None


def _direction_between(parent: GridPoint, child: GridPoint) -> Optional[Direction]:
    """Return the direction stepping ``parent -> child``, if adjacent."""
    delta = (child.layer - parent.layer, child.col - parent.col, child.row - parent.row)
    for direction in INDEX_DIRECTION:
        if direction.delta == delta:
            return direction
    return None


class ColorSearchResult:
    """Outcome of one color-state search.

    Wraps a :class:`~repro.search.CoreResult`.  The router reads the
    reached target's flat index (:attr:`reached`) and the backtrace the
    core's flat-index path and aux (color-state) bits through
    :meth:`node_path` / :meth:`aux_of`; the ``GridPoint`` views
    (:meth:`path_to_source`, :meth:`color_state_of`, ``labels``) are built
    on demand for tests and walk-throughs.
    """

    def __init__(self, core: CoreResult, grid: RoutingGrid) -> None:
        self._core = core
        self._grid = grid
        self._labels: Optional[Dict[GridPoint, VertexLabel]] = None
        self.expansions = core.expansions

    @property
    def reached(self) -> Optional[int]:
        """Return the flat index of the target the search stopped at, if any."""
        return self._core.reached if self._core.found else None

    @property
    def found(self) -> bool:
        """Return ``True`` when an unreached pin was found."""
        return self._core.found

    @property
    def labels(self) -> Dict[GridPoint, VertexLabel]:
        """Return the full label map (GridPoint view, built on demand)."""
        if self._labels is None:
            core, grid = self._core, self._grid
            vertex_of = grid.vertex_of
            labels: Dict[GridPoint, VertexLabel] = {}
            for node, cost in core.cost.items():
                vertex = vertex_of(node)
                pred = core.parent.get(node, -1)
                parent = vertex_of(pred) if pred >= 0 else None
                labels[vertex] = VertexLabel(
                    cost=cost,
                    color_state=ColorState(core.aux[node]),
                    parent=parent,
                    parent_direction=(
                        _direction_between(parent, vertex) if parent is not None else None
                    ),
                )
            self._labels = labels
        return self._labels

    def node_path(self) -> List[int]:
        """Return the flat-index path from the reached pin back to a source.

        Ordered destination-first (the order the backtrace of Algorithm 3
        walks it).  Raises ``ValueError`` on a failed search.
        """
        if not self._core.found:
            raise ValueError("cannot backtrace a failed color-state search")
        return self._core.node_path()

    def aux_of(self, nodes: Iterable[int]) -> List[int]:
        """Return the color-state bits labelled at each flat index of *nodes*."""
        return self._core.aux_of(nodes)

    def path_to_source(self) -> List[GridPoint]:
        """Return :meth:`node_path` as :class:`GridPoint` vertices."""
        vertex_of = self._grid.vertex_of
        return [vertex_of(node) for node in self.node_path()]

    def color_state_of(self, vertex: GridPoint) -> ColorState:
        """Return the color state assigned to *vertex* during the search."""
        return ColorState(self._core.aux_at(self._grid.index_of(vertex)))


class ColorStateSearch(RouteScopedExpand):
    """The color-state searching engine of Algorithm 2."""

    def __init__(
        self,
        grid: RoutingGrid,
        cost_model: CostModel,
        max_expansions: int = 2_000_000,
    ) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.rules = grid.rules
        self.max_expansions = max_expansions
        self.core = SearchCore(grid, cost_model, max_expansions)

    def search(
        self,
        sources: Sequence[Tuple[int, int]],
        targets: Collection[int],
        net_name: str,
    ) -> ColorSearchResult:
        """Search from *sources* to any flat index of *targets* for *net_name*.

        Parameters
        ----------
        sources:
            ``(flat index, color-state bits)`` seeds, in the order that
            breaks cost ties.  Fresh pins start at ``0b111`` (paper Alg. 1
            line 6); vertices of the already routed-and-colored tree start
            at their committed single mask so that joining them with a
            different mask is charged a stitch.  Blocked seeds are dropped.
        targets:
            Flat access indices of the still-unreached pins.
        net_name:
            The net being routed.
        """
        grid = self.grid
        if not targets:
            return ColorSearchResult(CoreResult.empty(), grid)
        blocked = grid.blocked_buffer()
        seeds = [seed for seed in sources if not blocked[seed[0]]]
        target_nodes = set(targets)
        bounds = TargetBounds.from_nodes(target_nodes, grid.route_dims)

        expand = self.expand_for(net_name)
        self.core.max_expansions = self.max_expansions
        cost_model = self.cost_model
        core = self.core.run(
            seeds,
            target_nodes,
            expand,
            bounds=bounds,
            merge_aux=True,
            improve_eps=_COST_TOLERANCE,
            tie_eps=_COST_TOLERANCE,
            window=cost_model.guide_tables.search_window(net_name),
            target_floor=cost_model.target_floor(
                net_name, grid.net_id(net_name), target_nodes, MODE_COLOR_STATE
            ),
        )
        return ColorSearchResult(core, grid)

    def make_expand(self, net_name: str) -> Callable:
        """Return *net_name*'s Alg. 2 expansion closure."""
        grid = self.grid
        return make_color_state_expand(grid, self.cost_model, net_name, grid.net_id(net_name))


def make_color_state_expand(
    grid: RoutingGrid,
    cost_model: CostModel,
    net_name: str,
    net_id: int,
) -> Callable[[int, float, int, List[int], List[float], List[int]], int]:
    """Return the Alg. 2 expansion callback over flat indices.

    Implements Algorithm 2 lines 9-17 per direction: the 3x1 per-mask cost
    (weighted traditional cost + color conflict cost + stitch cost for masks
    outside the current state on planar moves), the minimum of which becomes
    the edge cost while the set of masks achieving it (within
    ``_COST_TOLERANCE``) becomes the successor's color-state bits.
    Successors are written into the caller's preallocated buffers (the
    :class:`~repro.search.SearchCore` expand protocol).

    Congestion and per-mask pressure are read per successor from the
    grid's live buffers; the native kernel evaluates the same terms inline
    from the same buffers.

    Crossing to another layer (a via) resets the mask freedom: the new
    layer's metal has no stitch relationship with the current one, so all
    masks allowed by the neighbour's surroundings are candidates.
    """
    neighbor_table = grid.neighbor_table()
    blocked = grid.blocked_buffer()
    base_costs = cost_model.base_cost_table()
    rules = grid.rules
    alpha = rules.alpha
    gamma = rules.gamma
    stitch_penalty = cost_model.stitch_cost()
    plane = grid.plane_size
    # Out-of-guide penalty by mask byte: all-ones for unguided nets, so the
    # hot loop adds unconditionally (``step + 0.0`` is bitwise ``step``).
    guide_costs = (rules.out_of_guide_penalty, 0.0)
    guide_mask = cost_model.guide_mask(net_name)
    slot_of = cost_model.guide_slot_map()
    tolerance = _COST_TOLERANCE
    history = grid.history_buffer()
    owner = grid.owner_buffer()
    pressure = grid.pressure_buffer()
    history_weight = rules.history_weight
    occupancy_penalty = rules.occupancy_penalty

    def expand(
        node: int,
        g: float,
        bits: int,
        out_node: List[int],
        out_cost: List[float],
        out_aux: List[int],
    ) -> int:
        base_row = base_costs[node // plane]
        slot = node * NUM_DIRECTIONS
        count = 0
        for direction in range(NUM_DIRECTIONS):
            succ = neighbor_table[slot + direction]
            if succ < 0 or blocked[succ]:
                continue
            congestion = history_weight * history[succ]
            holder = owner[succ]
            if holder != 0 and holder != net_id:
                congestion += occupancy_penalty
            step = base_row[direction] + congestion
            step = step + guide_costs[guide_mask[slot_of[succ]]]
            base_step = alpha * step

            pressure_slot = 3 * succ
            cost_red = base_step + gamma * pressure[pressure_slot]
            cost_green = base_step + gamma * pressure[pressure_slot + 1]
            cost_blue = base_step + gamma * pressure[pressure_slot + 2]
            if direction < 4:  # planar move: stitch for masks outside the state
                if not bits & 0b100:
                    cost_red += stitch_penalty
                if not bits & 0b010:
                    cost_green += stitch_penalty
                if not bits & 0b001:
                    cost_blue += stitch_penalty
            minimum = cost_red if cost_red <= cost_green else cost_green
            if cost_blue < minimum:
                minimum = cost_blue
            limit = minimum + tolerance
            out_node[count] = succ
            out_cost[count] = g + minimum
            out_aux[count] = (
                (0b100 if cost_red <= limit else 0)
                | (0b010 if cost_green <= limit else 0)
                | (0b001 if cost_blue <= limit else 0)
            )
            count += 1
        return count

    return attach_native_spec(
        expand,
        MODE_COLOR_STATE,
        grid,
        cost_model,
        net_name,
        net_id,
        stitch=stitch_penalty,
        tolerance=tolerance,
    )
