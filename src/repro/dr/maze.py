"""Multi-source maze search on the routing grid (TPL-unaware).

The plain detailed router grows each multi-pin net as a tree: every search
starts from all vertices already in the tree (cost 0) and stops at the first
access vertex of a still-unreached pin.  This is the standard multi-source
Dijkstra formulation that Algorithm 1 of the paper also follows -- the
Mr.TPL variant in :mod:`repro.tpl.search` adds the color-state dimension.

:class:`MazeRouter` is a thin adapter over the shared
:class:`repro.search.SearchCore` engine: seeds and targets are flat grid
indices, the hot loop reads the grid's flat state buffers, and the reached
target and backtraced path are returned as flat indices
(:class:`GridPoint` objects are materialised only for the lazy
``parents`` / ``costs`` views).
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, List, Optional, Tuple

from repro.dr.cost import CostModel, TargetBounds
from repro.geometry import GridPoint
from repro.grid import NUM_DIRECTIONS, RoutingGrid
from repro.native.spec import MODE_TRADITIONAL, attach_native_spec
from repro.search import CoreResult, RouteScopedExpand, SearchCore


class SearchResult:
    """Outcome of one maze search.

    Wraps a :class:`~repro.search.CoreResult`: the reached target and the
    backtraced path are flat indices, and the ``GridPoint`` views
    (``parents``, ``costs``) are materialised lazily so the fast path never
    pays for them.
    """

    def __init__(self, core: CoreResult, grid: RoutingGrid) -> None:
        self._core = core
        self._grid = grid
        self._parents: Optional[Dict[GridPoint, Optional[GridPoint]]] = None
        self._costs: Optional[Dict[GridPoint, float]] = None
        self.expansions = core.expansions

    @property
    def reached(self) -> Optional[int]:
        """Return the flat index of the target the search stopped at, if any."""
        return self._core.reached if self._core.found else None

    @property
    def found(self) -> bool:
        """Return ``True`` when a target vertex was reached."""
        return self._core.found

    @property
    def parents(self) -> Dict[GridPoint, Optional[GridPoint]]:
        """Return the predecessor map (GridPoint view, built on demand)."""
        if self._parents is None:
            vertex_of = self._grid.vertex_of
            self._parents = {
                vertex_of(node): (vertex_of(pred) if pred >= 0 else None)
                for node, pred in self._core.parent.items()
            }
        return self._parents

    @property
    def costs(self) -> Dict[GridPoint, float]:
        """Return the best-cost map (GridPoint view, built on demand)."""
        if self._costs is None:
            vertex_of = self._grid.vertex_of
            self._costs = {vertex_of(node): value for node, value in self._core.cost.items()}
        return self._costs

    def backtrace(self) -> List[int]:
        """Return the flat-index path from a source (cost 0) to the reached vertex.

        The path is ordered source-first.  Raises ``ValueError`` when the
        search failed.
        """
        if not self._core.found:
            raise ValueError("cannot backtrace a failed search")
        nodes = self._core.node_path()
        nodes.reverse()
        return nodes


class MazeRouter(RouteScopedExpand):
    """Dijkstra/A* search engine shared by the plain detailed router."""

    def __init__(self, grid: RoutingGrid, cost_model: CostModel, max_expansions: int = 2_000_000) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.max_expansions = max_expansions
        self.core = SearchCore(grid, cost_model, max_expansions)

    def search(
        self,
        sources: Iterable[Tuple[int, int]],
        targets: Collection[int],
        net_name: str,
        allow_occupied_targets: bool = True,
    ) -> SearchResult:
        """Search from *sources* to any flat index of *targets*.

        Parameters
        ----------
        sources:
            ``(flat index, aux)`` seeds (the routed tree so far, or the
            first pin's access vertices), each starting at cost 0, in the
            order that breaks cost ties.  The maze labels carry no state, so
            the aux is 0.  Blocked seeds are dropped.
        targets:
            Acceptable destination flat indices (access vertices of
            unreached pins).
        net_name:
            The net being routed (needed for occupancy / guide costs).
        allow_occupied_targets:
            Target vertices covered by another net's metal are still accepted
            when ``True``; the negotiation loop resolves the resulting short.
        """
        grid = self.grid
        if not targets:
            return SearchResult(CoreResult.empty(), grid)
        blocked = grid.blocked_buffer()
        seeds = [seed for seed in sources if not blocked[seed[0]]]
        target_nodes = set(targets)
        bounds = TargetBounds.from_nodes(target_nodes, grid.route_dims)

        net_id = grid.net_id(net_name)
        accept: Optional[Callable[[int], bool]] = None
        floor_nodes: Iterable[int] = target_nodes
        if not allow_occupied_targets:
            is_other = grid.is_occupied_by_other_index

            def accept(node: int) -> bool:
                return not is_other(node, net_id)

            floor_nodes = [node for node in target_nodes if accept(node)]

        expand = self.expand_for(net_name)
        self.core.max_expansions = self.max_expansions
        cost_model = self.cost_model
        core = self.core.run(
            seeds,
            target_nodes,
            expand,
            bounds=bounds,
            accept=accept,
            window=cost_model.guide_tables.search_window(net_name),
            target_floor=cost_model.target_floor(net_name, net_id, floor_nodes),
        )
        return SearchResult(core, grid)

    def make_expand(self, net_name: str) -> Callable:
        """Return *net_name*'s ``Cost_trad`` expansion closure."""
        grid = self.grid
        return make_traditional_expand(grid, self.cost_model, net_name, grid.net_id(net_name))


def make_traditional_expand(
    grid: RoutingGrid,
    cost_model: CostModel,
    net_name: str,
    net_id: int,
) -> Callable[[int, float, int, List[int], List[float], List[int]], int]:
    """Return :func:`traditional_expand` with its native spec attached."""
    return attach_native_spec(
        traditional_expand(grid, cost_model, net_name, net_id),
        MODE_TRADITIONAL,
        grid,
        cost_model,
        net_name,
        net_id,
    )


def traditional_expand(
    grid: RoutingGrid,
    cost_model: CostModel,
    net_name: str,
    net_id: int,
) -> Callable[[int, float, int, List[int], List[float], List[int]], int]:
    """Return the bare ``Cost_trad`` expansion callback over flat indices.

    One step costs ``alpha * ((base + congestion) + guide)`` exactly as
    :meth:`CostModel.step_cost_index` computes it (same operation order, so
    the two agree bitwise).  Successors are written into the caller's
    preallocated buffers (the :class:`~repro.search.SearchCore` expand
    protocol) -- the hot loop allocates nothing.  Congestion is read per
    successor from the grid's live history / owner buffers, and the guide
    penalty from the net's gcell mask through the cost model's vertex ->
    gcell-slot map.  The native kernel evaluates the same terms inline from
    the same buffers.  Shared by the maze adapter (through
    :func:`make_traditional_expand`) and the DAC-2012 adapter's grid moves,
    which attaches a spec of its own to its outer closure.
    """
    neighbor_table = grid.neighbor_table()
    blocked = grid.blocked_buffer()
    base_costs = cost_model.base_cost_table()
    rules = grid.rules
    alpha = rules.alpha
    plane = grid.plane_size
    # Out-of-guide penalty by mask byte: all-ones for unguided nets, so the
    # hot loop adds unconditionally (``step + 0.0`` is bitwise ``step``).
    guide_costs = (rules.out_of_guide_penalty, 0.0)
    guide_mask = cost_model.guide_mask(net_name)
    slot_of = cost_model.guide_slot_map()
    history = grid.history_buffer()
    owner = grid.owner_buffer()
    history_weight = rules.history_weight
    occupancy_penalty = rules.occupancy_penalty

    def expand(
        node: int,
        g: float,
        _aux: int,
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
            out_node[count] = succ
            out_cost[count] = g + alpha * step
            out_aux[count] = 0
            count += 1
        return count

    return expand
