"""The Mr.TPL router: the complete flow of paper Fig. 2.

The router combines the substrates of this repository:

1. build the routing grid (and optionally GR guides),
2. route nets sequentially; every net is grown as a tree with
   **color-state searching** (Algorithm 2, :mod:`repro.tpl.search`) and the
   verSet/segSet **backtrace** (Algorithm 3, :mod:`repro.tpl.backtrace`),
   coloring the routed vertices as it goes,
3. detect color conflicts over the whole layout,
4. if conflicts remain and the iteration budget allows, rip up the nets
   involved, bump the history cost at the conflict locations, and reroute.

Steps 3-4 run in the rip-up loop all three routers share
(:class:`~repro.campaign.CampaignRouter`); this module supplies the
colour-state engine and the loop's check and rip-up steps.

The output is a colored :class:`~repro.grid.RoutingSolution` that the shared
evaluation code scores exactly like the baselines' outputs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.campaign import CampaignRouter
from repro.check import IncrementalConflictChecker
from repro.design import Design, Net
from repro.dr.cost import CostModel
from repro.gr import GlobalRouter, GuideSet
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.search import TreeSeedOrder
from repro.tpl.backtrace import Backtracer, apply_colored_path
from repro.tpl.color_state import ALL_COLORS, ColorState
from repro.tpl.conflict import ConflictReport
from repro.tpl.search import ColorStateSearch

#: Seed color-state bits by committed mask, then (at ``_FRESH``) all masks
#: for a vertex with no mask yet.
_SEED_BITS = tuple(ColorState.single(color).bits for color in ALL_COLORS) + (
    ColorState.all().bits,
)
_FRESH = len(ALL_COLORS)


class MrTPLRouter(CampaignRouter):
    """Triple-patterning-aware multi-pin net detailed router (Mr.TPL).

    Runs the shared :class:`~repro.campaign.CampaignRouter` loop with
    colour-state search; its check step counts colour conflicts and its
    rip-up step adds history at the conflict locations and along the
    ripped routes.
    """

    name = "mr-tpl"

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
        self.search_engine = ColorStateSearch(self.grid, self.cost_model)
        self.backtracer = Backtracer(self.grid, self.cost_model)
        self.incremental_conflicts = IncrementalConflictChecker(design, self.grid)

    def make_search_engine(self) -> ColorStateSearch:
        """Return a fresh color-state engine over this router's grid.

        The batch executor creates one per worker so concurrent searches
        never share label buffers.
        """
        return ColorStateSearch(self.grid, self.cost_model)

    # ------------------------------------------------------------------
    # Single-net routing (Fig. 2 centre and right columns, Algorithm 1)
    # ------------------------------------------------------------------

    def compute_route(self, net: Net, engine: Optional[object] = None) -> NetRoute:
        """Route one net (paper Algorithm 1) through *engine*; write nothing.

        Follows Algorithm 1: seed the queue with the vertices covered by the
        first pin at color state ``111``, repeatedly search until an
        unreached pin is found, backtrace to color the path, and keep the
        colored path vertices as sources for the next search until every pin
        is routed.  The grid holds none of the net's metal throughout: the
        coloured tree is the returned route, committed in one route commit
        afterwards (:func:`~repro.sched.commit.route_log`), so the grid's
        color pressure is exactly the other nets' metal that ``Cost_color``
        charges for.

        Runs on flat indices: the route's node set is the tree, its node
        colours are the committed masks, and pins are addressed by their
        cached access indices (:meth:`RoutingGrid.pin_access_nodes`).
        """
        if engine is None:
            engine = self.search_engine
        grid = self.grid
        route = NetRoute(net.name, grid.route_dims)
        pin_nodes = [grid.pin_access_nodes(pin) for pin in net.pins]
        if any(not group for group in pin_nodes):
            route.routed = False
            route.failure_reason = "pin without reachable access vertex"
            return route

        tree = route.nodes
        tree.update(pin_nodes[0])
        tree_colors = route.node_colors
        colors_get = tree_colors.get
        # The search seeds follow this order, and the kernel breaks cost
        # ties by push order.
        order = TreeSeedOrder(grid.route_dims, pin_nodes[0])
        unreached = list(range(1, len(pin_nodes)))

        # One expansion closure serves every search of this net route.
        with engine.net_route(net.name):
            while unreached:
                targets: Dict[int, int] = {}
                for index in unreached:
                    for node in pin_nodes[index]:
                        if node not in tree:
                            targets.setdefault(node, index)
                if not targets:
                    # Remaining pins are already covered by the routed tree.
                    unreached.clear()
                    break
                # Fresh (pin-only) vertices start fully flexible at 111;
                # coloured ones are held to their committed mask, so that
                # attaching a different mask is charged as a stitch.
                seeds = [(node, _SEED_BITS[colors_get(node, _FRESH)]) for node in order.nodes()]
                search = engine.search(seeds, targets, net.name)
                if not search.found:
                    route.routed = False
                    route.failure_reason = "color-state search exhausted without reaching a pin"
                    break
                colored_path = self.backtracer.backtrace(search, net.name, tree_colors)
                apply_colored_path(colored_path, route)

                reached_pin = targets[search.reached]
                unreached.remove(reached_pin)
                order.update(colored_path.nodes)
                order.update(pin_nodes[reached_pin])
                tree.update(pin_nodes[reached_pin])
                # Release the result: the engine copies the label buffers of a
                # previous result that is still referenced when it runs again.
                del search, colored_path
        return route

    # ------------------------------------------------------------------
    # Loop steps: conflict check, then Fig. 2 "Rip Up & Update History Cost"
    # ------------------------------------------------------------------

    def _check(self, solution: RoutingSolution):
        report = self.incremental_conflicts.check(solution)
        return report.nets_involved(), report.conflict_count, report

    def _rip_up(
        self,
        offenders: Set[str],
        report: ConflictReport,
        solution: RoutingSolution,
    ) -> None:
        self.grid.add_history_nodes(report.conflict_nodes(self.grid), 1.0)
        for net_name in offenders:
            self.grid.release_net(net_name)
            route = solution.routes.get(net_name)
            if route is not None:
                self.grid.add_history_nodes(route.nodes, 0.25)
            solution.routes.pop(net_name, None)
