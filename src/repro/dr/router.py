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

from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

from repro.campaign import CampaignState
from repro.check import IncrementalDRCChecker
from repro.design import Design, Net
from repro.dr.cost import CostModel
from repro.dr.maze import MazeRouter
from repro.geometry import GridPoint
from repro.gr.guide import GuideSet
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.profiling import PhaseTimes
from repro.sched import GridSink, make_batch_executor
from repro.utils import Timer, get_logger

_LOG = get_logger("dr.router")


class DetailedRouter:
    """Sequential negotiation-based detailed router (no TPL awareness).

    The ``parallelism`` / ``batch_size`` / ``batch_backend`` arguments
    switch the rip-up loop onto the :mod:`repro.sched` disjoint-batch
    executor (``batch_backend`` one of ``serial`` / ``pool``;
    ``min_fork_batch`` is the smallest batch worth forking pool workers
    for); the default (``parallelism=1``, no batch size) keeps the plain
    sequential loop.
    """

    name = "plain-dr"

    def __init__(
        self,
        design: Design,
        grid: Optional[RoutingGrid] = None,
        guides: Optional[GuideSet] = None,
        max_iterations: Optional[int] = None,
        parallelism: int = 1,
        batch_size: Optional[int] = None,
        batch_backend: str = "serial",
        min_fork_batch: Optional[int] = None,
    ) -> None:
        self.design = design
        self.grid = grid if grid is not None else RoutingGrid(design)
        self.guides = guides
        self.cost_model = CostModel(self.grid, guides)
        self.maze = MazeRouter(self.grid, self.cost_model)
        self.max_iterations = (
            max_iterations
            if max_iterations is not None
            else design.tech.rules.max_ripup_iterations
        )
        # Incremental short tallies drive the negotiation loop; the full
        # re-scan (`_nets_with_shorts`) stays as the frozen reference oracle.
        self.incremental_drc = IncrementalDRCChecker(design, self.grid, guides)
        self.batch_executor = make_batch_executor(
            self, parallelism, batch_size, batch_backend, min_fork_batch
        )
        # Per-phase wall-clock record: shared with the executor's stats when
        # one is engaged, so campaign merges and bench JSON see one record.
        self.phases = (
            self.batch_executor.stats.phases
            if self.batch_executor is not None
            else PhaseTimes()
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        campaign: Optional[CampaignState] = None,
        on_iteration: Optional[Callable[[CampaignState], None]] = None,
    ) -> RoutingSolution:
        """Route every net, negotiate shorts, and return the solution.

        *campaign* makes the rip-up loop resumable: a fresh
        :class:`CampaignState` records the loop position as it advances,
        and one loaded from a checkpoint (grid already restored, solution
        attached) resumes at its last completed iteration instead of
        routing from scratch.  *on_iteration* fires after initial routing
        (iteration 0) and after every completed rip-up round --
        :func:`~repro.eval.experiments.route_with_checkpoint` saves its
        per-iteration checkpoints from exactly this hook.
        """
        timer = Timer()
        timer.start()
        if campaign is None:
            campaign = CampaignState()
        if campaign.started:
            solution = campaign.solution
        else:
            solution = RoutingSolution(design_name=self.design.name, router_name=self.name)
            campaign.solution = solution
            self._route_many(self.schedule_nets(), solution)
            if on_iteration is not None:
                on_iteration(campaign)
        iterations = campaign.iteration
        for iteration in range(campaign.iteration, self.max_iterations):
            check_started = perf_counter()
            self.incremental_drc.refresh(solution)
            offenders = self.incremental_drc.shorted_nets()
            self.phases.add("check", perf_counter() - check_started)
            offenders.update(route.net_name for route in solution.failed_nets())
            if not offenders:
                break
            iterations = iteration + 1
            _LOG.info("iteration %d: %d nets involved in shorts", iterations, len(offenders))
            # PathFinder-style negotiation: fade stale congestion evidence
            # before this iteration's rip-up adds fresh history.
            self.grid.decay_history(self.grid.rules.history_decay)
            self._rip_up(offenders, solution)
            # Sorted: the reroute order reaches search results, and set
            # iteration order is per-process (hash randomisation) -- an
            # unsorted walk would break the resume-equals-uninterrupted
            # guarantee across processes.
            self._route_many(
                [self.design.net_by_name(net_name) for net_name in sorted(offenders)],
                solution,
            )
            campaign.iteration = iterations
            if on_iteration is not None:
                on_iteration(campaign)
        # Record the campaign's failure/supervision history (retries,
        # timeouts, replacements, demotions) before declaring it done, so
        # even non-checkpointed campaigns expose it on the CampaignState.
        campaign.update_executor_stats(self.batch_executor)
        campaign.done = True
        solution.iterations = iterations
        solution.runtime_seconds = timer.stop()
        if self.batch_executor is not None:
            self.batch_executor.close()  # release pool workers between runs
        return solution

    def _route_many(self, nets: List[Net], solution: RoutingSolution) -> None:
        """Route *nets* in order -- batched when an executor is configured."""
        if self.batch_executor is not None:
            self.batch_executor.route_nets(nets, solution)
        else:
            search_started = perf_counter()
            for net in nets:
                solution.add_route(self.route_net(net))
            self.phases.add("search", perf_counter() - search_started)

    def make_search_engine(self) -> MazeRouter:
        """Return a fresh search engine over this router's grid/costs.

        The batch executor creates one per worker so concurrent searches
        never share label buffers.
        """
        return MazeRouter(self.grid, self.cost_model)

    def schedule_nets(self) -> List[Net]:
        """Return routable nets ordered for sequential routing.

        Small-bounding-box, high-pin-count nets first: they have the fewest
        detour options, the same ordering rationale Dr.CU uses.
        """
        return sorted(
            self.design.routable_nets(),
            key=lambda net: (net.half_perimeter_wirelength(), -net.num_pins, net.name),
        )

    def route_net(self, net: Net) -> NetRoute:
        """Route a single (multi-pin) net as a tree of maze paths.

        Computes the route and commits it to the grid immediately
        (:meth:`compute_route` with the default :class:`GridSink`).
        """
        return self.compute_route(net)

    def compute_route(
        self, net: Net, engine: Optional[object] = None, sink: Optional[object] = None
    ) -> NetRoute:
        """Route one net through *engine*, sending grid commits to *sink*.

        With the defaults this is the sequential ``route_net`` behaviour.
        A :class:`~repro.sched.commit.RecordingSink` turns the call into a
        pure snapshot computation (no grid mutation) -- the speculative
        batch backends route this way with per-worker engines.
        """
        if engine is None:
            engine = self.maze
        if sink is None:
            sink = GridSink(self.grid, net.name)
        route = NetRoute(net_name=net.name)
        pin_groups = [self.grid.pin_access_vertices(pin) for pin in net.pins]
        usable_groups = [group for group in pin_groups if group]
        if len(usable_groups) < len(pin_groups):
            route.routed = False
            route.failure_reason = "pin without reachable access vertex"
            return route
        tree_vertices: Set[GridPoint] = set(usable_groups[0])
        for vertex in tree_vertices:
            route.vertices.add(vertex)
        unreached = list(range(1, len(usable_groups)))
        while unreached:
            targets: Dict[GridPoint, int] = {}
            for index in unreached:
                for vertex in usable_groups[index]:
                    targets.setdefault(vertex, index)
            search = engine.search(tree_vertices, set(targets), net.name)
            if not search.found:
                route.routed = False
                route.failure_reason = "maze search exhausted without reaching a pin"
                break
            path = search.backtrace()
            route.add_path(path)
            reached_pin = targets[search.reached]
            unreached.remove(reached_pin)
            tree_vertices.update(path)
            tree_vertices.update(usable_groups[reached_pin])
            route.vertices.update(usable_groups[reached_pin])
        if route.routed:
            self._commit(route, sink)
        return route

    # ------------------------------------------------------------------
    # Negotiation loop helpers
    # ------------------------------------------------------------------

    def _commit(self, route: NetRoute, sink: object) -> None:
        for vertex in route.vertices:
            sink.occupy(vertex)

    def _rip_up(self, net_names: Set[str], solution: RoutingSolution) -> None:
        for net_name in net_names:
            self.grid.release_net(net_name)
            route = solution.routes.get(net_name)
            if route is None:
                continue
            for vertex in route.vertices:
                self.grid.add_history(vertex, 1.0)

    def _nets_with_shorts(self, solution: RoutingSolution) -> Set[str]:
        """Return the names of nets sharing at least one vertex with another net.

        Full re-scan reference for the incremental short tally consumed by
        :meth:`run`; kept for the differential tests.
        """
        offenders: Set[str] = set()
        ownership = solution.vertex_ownership()
        for _vertex, owners in ownership.items():
            if len(owners) > 1:
                offenders.update(owners)
        # Also retry nets that failed outright.
        offenders.update(route.net_name for route in solution.failed_nets())
        return offenders
