"""The DAC-2012 style TPL-aware router baseline (Ma et al.).

Ma, Zhang and Wong (DAC 2012) route on a mask-expanded grid: every routing
vertex is split into per-mask copies (their formulation uses 12 copies --
3 masks x 4 directions; this reproduction uses the 3 mask planes, which
preserves the two properties the paper's comparison exploits):

* the search graph is three times larger, so the router is noticeably
  slower than one searching the plain grid with color *states*;
* the method is defined for 2-pin connections: a multi-pin net is broken
  into independent 2-pin connections whose colors are committed as soon as
  each path is found.  Because "2-pin methods cannot dynamically adjust the
  already-colored paths when connecting multiple pins" (paper Section I),
  junctions between sub-paths of the same net frequently disagree on the
  mask and turn into stitches, and the eagerly committed colors leave less
  room to dodge conflicts with neighbouring nets.

The baseline shares the grid, cost weights, guides and evaluation pipeline
with Mr.TPL so the Table II comparison is apples-to-apples.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign import CampaignRouter
from repro.check import IncrementalConflictChecker
from repro.design import Design, Net
from repro.dr.cost import CostModel, TargetBounds
from repro.dr.maze import traditional_expand
from repro.geometry import Point
from repro.gr import GlobalRouter, GuideSet
from repro.gr.steiner import rectilinear_mst
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.native.spec import MODE_MASK_EXPANDED, attach_native_spec
from repro.search import RouteScopedExpand, SearchCore
from repro.tpl.color_state import ALL_COLORS
from repro.tpl.conflict import ConflictReport

#: A search state on the mask-expanded graph: (flat vertex index, mask).
MaskedNode = Tuple[int, int]


class MaskExpandedSearch(RouteScopedExpand):
    """2-pin search on the mask-expanded graph (3 mask planes per vertex).

    A thin adapter over the shared :class:`repro.search.SearchCore`: nodes
    are ``vertex_index * 3 + mask``; every expansion offers the two in-place
    mask switches (a stitch on the expanded graph) followed by the six grid
    moves keeping the mask (each charged the mask's color conflict cost at
    the destination).
    """

    #: Nodes per grid vertex on the mask-expanded graph (the batch
    #: executor's explored-region tracker decodes labels through this).
    node_stride = 3

    def __init__(
        self,
        grid: RoutingGrid,
        cost_model: CostModel,
        max_expansions: int = 6_000_000,
    ) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.max_expansions = max_expansions
        self.core = SearchCore(grid, cost_model, max_expansions)
        # Target group -> its bounds and mask-expanded node set.
        self._targets: Dict[Tuple[int, ...], Tuple[Optional[TargetBounds], Set[int]]] = {}

    def search(
        self,
        sources: Sequence[MaskedNode],
        targets: Sequence[int],
        net_name: str,
    ) -> Optional[List[MaskedNode]]:
        """Search from the ``(flat index, mask)`` *sources* to any of the flat
        vertex indices *targets* (any mask).

        Returns the ``(flat index, mask)`` path ordered source-first, or
        ``None`` when the search exhausts.  A target group's bounds and
        mask-expanded nodes depend on its indices alone, so they are built
        once per group (a pin's cached access tuple, searched again on
        every rip-up round).
        """
        if not targets:
            return None
        grid = self.grid
        key = tuple(targets)
        cached = self._targets.get(key)
        if cached is None:
            cached = self._targets[key] = (
                TargetBounds.from_nodes(key, grid.route_dims),
                {node * 3 + color for node in key for color in ALL_COLORS},
            )
        bounds, target_nodes = cached
        seeds = [(node * 3 + color, 0) for node, color in sources]

        expand = self.expand_for(net_name)
        self.core.max_expansions = self.max_expansions
        cost_model = self.cost_model
        core = self.core.run(
            seeds,
            target_nodes,
            expand,
            bounds=bounds,
            node_stride=3,
            window=cost_model.guide_tables.search_window(net_name),
            target_floor=cost_model.target_floor(
                net_name, grid.net_id(net_name), target_nodes, MODE_MASK_EXPANDED
            ),
        )
        if not core.found:
            return None
        nodes = core.node_path()
        nodes.reverse()
        return [divmod(node, 3) for node in nodes]

    def make_expand(
        self, net_name: str
    ) -> Callable[[int, float, int, List[int], List[float], List[int]], int]:
        """Return *net_name*'s expansion closure on the mask-expanded graph."""
        grid = self.grid
        cost_model = self.cost_model
        net_id = grid.net_id(net_name)
        gamma = grid.rules.gamma
        stitch_penalty = cost_model.stitch_cost()
        # Grid moves delegate to the shared traditional expand; the mask's
        # conflict cost is read per successor from the live pressure buffer
        # (the native kernel does the same inline).
        traditional = traditional_expand(grid, cost_model, net_name, net_id)
        # Scratch buffers for the embedded traditional (grid-move) expand;
        # its successors are re-based onto the mask-expanded node space.
        move_node: List[int] = [0] * 8
        move_cost: List[float] = [0.0] * 8
        move_aux: List[int] = [0] * 8
        pressure = grid.pressure_buffer()

        def expand(
            node: int,
            g: float,
            _aux: int,
            out_node: List[int],
            out_cost: List[float],
            out_aux: List[int],
        ) -> int:
            vertex, color = divmod(node, 3)
            vertex_base = 3 * vertex
            count = 0
            for other_color in ALL_COLORS:
                if other_color != color:
                    out_node[count] = vertex_base + other_color
                    out_cost[count] = g + stitch_penalty
                    out_aux[count] = 0
                    count += 1
            moves = traditional(vertex, g, 0, move_node, move_cost, move_aux)
            for slot in range(moves):
                succ = move_node[slot]
                out_node[count] = succ * 3 + color
                out_cost[count] = move_cost[slot] + gamma * pressure[3 * succ + color]
                out_aux[count] = 0
                count += 1
            return count

        return attach_native_spec(
            expand,
            MODE_MASK_EXPANDED,
            grid,
            cost_model,
            net_name,
            net_id,
            stitch=stitch_penalty,
        )


class Dac2012Router(CampaignRouter):
    """2-pin, mask-expanded-graph TPL-aware router (Table II baseline).

    Runs the shared :class:`~repro.campaign.CampaignRouter` loop with
    mask-expanded 2-pin search; its check step counts colour conflicts
    and its rip-up step adds history at the conflict locations only.
    """

    name = "dac2012"

    def __init__(
        self,
        design: Design,
        grid: Optional[RoutingGrid] = None,
        guides: Optional[GuideSet] = None,
        use_global_router: bool = True,
        max_iterations: Optional[int] = None,
        parallelism: int = 1,
        batch_backend: str = "serial",
        min_fork_batch: Optional[int] = None,
    ) -> None:
        super().__init__(
            design, grid, max_iterations, parallelism, batch_backend, min_fork_batch
        )
        if guides is None and use_global_router:
            guides = GlobalRouter(design).route()
        self.guides = guides
        self.cost_model = CostModel(self.grid, guides)
        self.incremental_conflicts = IncrementalConflictChecker(design, self.grid)
        self.max_expansions = 6_000_000
        self.two_pin_engine = MaskExpandedSearch(
            self.grid, self.cost_model, self.max_expansions
        )
        # Net name -> its 2-pin connections (see _two_pin_topology).
        self._topologies: Dict[str, Tuple[Tuple[int, int], ...]] = {}

    def make_search_engine(self) -> MaskExpandedSearch:
        """Return a fresh mask-expanded engine over this router's grid.

        The batch executor creates one per worker so concurrent searches
        never share label buffers.
        """
        return MaskExpandedSearch(self.grid, self.cost_model, self.max_expansions)

    def _check(self, solution: RoutingSolution):
        report = self.incremental_conflicts.check(solution)
        return report.nets_involved(), report.conflict_count, report

    def _rip_up(
        self, offenders: Set[str], report: ConflictReport, solution: RoutingSolution
    ) -> None:
        self.grid.add_history_nodes(report.conflict_nodes(self.grid), 1.0)
        for net_name in offenders:
            self.grid.release_net(net_name)
            solution.routes.pop(net_name, None)

    # ------------------------------------------------------------------

    def compute_route(self, net: Net, engine: Optional[object] = None) -> NetRoute:
        """Route one net through *engine*; write nothing.

        The 2-pin formulation fixes each connection's colors as soon as the
        path is found: they go into the route at once, and the route-local
        colors steer the next connection, which preserves the defining
        limitation.  The grid holds none of the net's metal until the route
        is committed in one route commit afterwards
        (:func:`~repro.sched.commit.route_log`).  Pins are addressed by
        their cached flat access indices
        (:meth:`RoutingGrid.pin_access_nodes`), sorted as the access
        vertices are.
        """
        if engine is None:
            engine = self.two_pin_engine
        grid = self.grid
        route = NetRoute(net.name, grid.route_dims)
        pin_groups = [grid.pin_access_nodes(pin) for pin in net.pins]
        if any(not group for group in pin_groups):
            route.routed = False
            route.failure_reason = "pin without reachable access vertex"
            return route
        for group in pin_groups:
            route.nodes.update(group)

        # One expansion closure serves every 2-pin search of this net.
        with engine.net_route(net.name):
            for index_a, index_b in self._two_pin_topology(net):
                found = self._route_two_pin(
                    pin_groups[index_a], pin_groups[index_b], route, engine
                )
                if not found:
                    route.routed = False
                    route.failure_reason = (
                        f"2-pin connection {net.pins[index_a].full_name} -> "
                        f"{net.pins[index_b].full_name} failed"
                    )
                    break
        return route

    def _two_pin_topology(self, net: Net) -> Tuple[Tuple[int, int], ...]:
        """Decompose the net into 2-pin connections via a Manhattan MST over pins.

        The MST runs over the distinct pin centres, each standing for the
        first pin there; every later pin on a repeated centre (a twin on
        another layer, say) joins that first pin.  Computed once per net
        name: a net's pins do not move during a campaign.
        """
        pairs = self._topologies.get(net.name)
        if pairs is None:
            centers = [pin.center() for pin in net.pins]
            first: Dict[Point, int] = {}
            for index, center in enumerate(centers):
                first.setdefault(center, index)
            mst = [(first[a], first[b]) for a, b in rectilinear_mst(centers)]
            twins = [(first[c], i) for i, c in enumerate(centers) if first[c] != i]
            pairs = self._topologies[net.name] = tuple(mst + twins)
        return pairs

    # ------------------------------------------------------------------

    def _route_two_pin(
        self,
        source_group: Sequence[int],
        target_group: Sequence[int],
        route: NetRoute,
        engine: "MaskExpandedSearch",
    ) -> bool:
        """Route one 2-pin connection on the (vertex, mask) expanded graph.

        The colors of the found path are fixed in the route immediately --
        the defining limitation of the 2-pin formulation.  The path goes
        into the route in bulk: its vertices and edges, then its masks.
        """
        blocked = self.grid.blocked_buffer()
        committed_get = route.node_colors.get
        sources: List[MaskedNode] = []
        for node in source_group:
            if blocked[node]:
                continue
            committed = committed_get(node)
            if committed is not None:
                sources.append((node, committed))
            else:
                sources.extend([(node, color) for color in ALL_COLORS])

        engine.max_expansions = self.max_expansions
        path = engine.search(sources, target_group, route.net_name)
        if path is None:
            return False
        route.add_node_path([node for node, _ in path])
        route.set_node_colors(path)
        return True
