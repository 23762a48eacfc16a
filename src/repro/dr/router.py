"""The plain (TPL-unaware) sequential detailed router.

The router mirrors the structure of Dr.CU: nets are scheduled, each net is
routed as a tree by repeated multi-source maze searches, and an outer
negotiation loop rips up nets involved in shorts, bumps the history cost of
the contested vertices and reroutes until clean or the iteration budget is
exhausted.

It deliberately knows nothing about masks: its output is exactly the
"routed layout generated by Dr.CU(2.0)" that the Table III experiment feeds
into the OpenMPL-like layout decomposer.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.campaign import CampaignRouter
from repro.check import IncrementalDRCChecker
from repro.design import Design, Net
from repro.dr.cost import CostModel
from repro.dr.maze import MazeRouter
from repro.gr.guide import GuideSet
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.search import TreeSeedOrder


class DetailedRouter(CampaignRouter):
    """Sequential negotiation-based detailed router (no TPL awareness).

    Runs the shared :class:`~repro.campaign.CampaignRouter` loop with maze
    search; its check step counts shorted nets and its rip-up step adds
    history along the ripped routes.
    """

    name = "plain-dr"

    def __init__(
        self,
        design: Design,
        grid: Optional[RoutingGrid] = None,
        guides: Optional[GuideSet] = None,
        max_iterations: Optional[int] = None,
        parallelism: int = 1,
        batch_backend: str = "serial",
        min_fork_batch: Optional[int] = None,
    ) -> None:
        super().__init__(
            design, grid, max_iterations, parallelism, batch_backend, min_fork_batch
        )
        self.guides = guides
        self.cost_model = CostModel(self.grid, guides)
        self.maze = MazeRouter(self.grid, self.cost_model)
        self.incremental_drc = IncrementalDRCChecker()

    def make_search_engine(self) -> MazeRouter:
        """Return a fresh search engine over this router's grid/costs.

        The batch executor creates one per worker so concurrent searches
        never share label buffers.
        """
        return MazeRouter(self.grid, self.cost_model)

    def compute_route(self, net: Net, engine: Optional[object] = None) -> NetRoute:
        """Route one net through *engine*; write nothing.

        A pure computation against a grid that holds none of the net's
        metal: the returned route is committed in one route commit
        afterwards (:func:`~repro.sched.commit.route_log`) -- by
        ``route_net``, or by the pool parent for routes its workers
        computed with their own engines.  A failed route holds no coloured
        vertex, so it commits no metal.  Runs on flat indices: pins are
        addressed by their cached access indices
        (:meth:`RoutingGrid.pin_access_nodes`).
        """
        if engine is None:
            engine = self.maze
        grid = self.grid
        route = NetRoute(net.name, grid.route_dims)
        pin_nodes = [grid.pin_access_nodes(pin) for pin in net.pins]
        if any(not group for group in pin_nodes):
            route.routed = False
            route.failure_reason = "pin without reachable access vertex"
            return route
        route.nodes.update(pin_nodes[0])
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
                        targets.setdefault(node, index)
                seeds = [(node, 0) for node in order.nodes()]
                search = engine.search(seeds, targets, net.name)
                if not search.found:
                    route.routed = False
                    route.failure_reason = "maze search exhausted without reaching a pin"
                    break
                path = search.backtrace()
                route.add_node_path(path)
                reached_pin = targets[search.reached]
                unreached.remove(reached_pin)
                order.update(path)
                order.update(pin_nodes[reached_pin])
                route.nodes.update(pin_nodes[reached_pin])
                # Release the result: the engine copies the label buffers of a
                # previous result that is still referenced when it runs again.
                del search
        return route

    # ------------------------------------------------------------------
    # Negotiation loop steps
    # ------------------------------------------------------------------

    def _check(self, solution: RoutingSolution):
        self.incremental_drc.refresh(solution)
        shorted = self.incremental_drc.shorted_nets()
        return shorted, len(shorted), None

    def _rip_up(self, offenders: Set[str], _evidence: None, solution: RoutingSolution) -> None:
        for net_name in offenders:
            self.grid.release_net(net_name)
            route = solution.routes.get(net_name)
            if route is None:
                continue
            self.grid.add_history_nodes(route.nodes, 1.0)
