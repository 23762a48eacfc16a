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

The output is a colored :class:`~repro.grid.RoutingSolution` that the shared
evaluation code scores exactly like the baselines' outputs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

from repro.campaign import CampaignState
from repro.check import IncrementalConflictChecker
from repro.design import Design, Net
from repro.dr.cost import CostModel
from repro.geometry import GridPoint
from repro.gr import GlobalRouter, GuideSet
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.profiling import PhaseTimes
from repro.sched import GridSink, make_batch_executor
from repro.tpl.backtrace import Backtracer, apply_colored_path
from repro.tpl.color_state import ColorState
from repro.tpl.conflict import ConflictChecker, ConflictReport
from repro.tpl.search import ColorStateSearch
from repro.utils import Timer, get_logger

_LOG = get_logger("tpl.mr_tpl")


class MrTPLRouter:
    """Triple-patterning-aware multi-pin net detailed router (Mr.TPL).

    The ``parallelism`` / ``batch_size`` / ``batch_backend`` arguments
    switch the rip-up loop onto the :mod:`repro.sched` disjoint-batch
    executor (``batch_backend`` one of ``serial`` / ``pool``;
    ``min_fork_batch`` is the smallest batch worth forking pool workers
    for); the default keeps the plain sequential loop.
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
        batch_size: Optional[int] = None,
        batch_backend: str = "serial",
        min_fork_batch: Optional[int] = None,
    ) -> None:
        self.design = design
        self.grid = grid if grid is not None else RoutingGrid(design)
        if guides is None and use_global_router:
            guides = GlobalRouter(design).route()
        self.guides = guides
        self.cost_model = CostModel(self.grid, guides)
        self.search_engine = ColorStateSearch(self.grid, self.cost_model)
        self.backtracer = Backtracer(self.grid, self.cost_model)
        # Full re-scan checker: the frozen reference oracle (final evaluation,
        # differential tests).  The rip-up loop consumes the incremental one.
        self.conflict_checker = ConflictChecker(design, self.grid)
        self.incremental_conflicts = IncrementalConflictChecker(design, self.grid)
        self.max_iterations = (
            max_iterations
            if max_iterations is not None
            else design.tech.rules.max_ripup_iterations
        )
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
    # Full flow (Fig. 2, left column)
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        campaign: Optional[CampaignState] = None,
        on_iteration: Optional[Callable[[CampaignState], None]] = None,
    ) -> RoutingSolution:
        """Route and color every net, then negotiate color conflicts.

        *campaign* makes the rip-up loop resumable (see
        :class:`~repro.campaign.CampaignState`): the loop position **and**
        the keep-the-best-iteration tracking live there, so a checkpointed
        campaign resumed in another process converges on the same solution
        as the uninterrupted run.  *on_iteration* fires after initial
        routing (iteration 0) and after every completed rip-up round.
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
            report = self.incremental_conflicts.check(solution)
            self.phases.add("check", perf_counter() - check_started)
            offenders = report.nets_involved()
            offenders.update(route.net_name for route in solution.failed_nets())
            defects = (len(solution.failed_nets()), report.conflict_count)
            if campaign.best_defects is None or defects < campaign.best_defects:
                campaign.best_defects = defects
                campaign.best_routes = dict(solution.routes)
            if not offenders:
                break
            iterations = iteration + 1
            _LOG.info(
                "iteration %d: %d conflicts, ripping up %d nets",
                iterations,
                report.conflict_count,
                len(offenders),
            )
            # PathFinder-style negotiation: fade stale congestion evidence
            # before this iteration's rip-up adds fresh history.
            self.grid.decay_history(self.grid.rules.history_decay)
            self._rip_up_and_update_history(offenders, report, solution)
            self._route_many(
                [self.design.net_by_name(name) for name in sorted(offenders)], solution
            )
            campaign.iteration = iterations
            if on_iteration is not None:
                on_iteration(campaign)

        # Rip-up and reroute can oscillate on hard instances; keep the best
        # iteration rather than blindly returning the last one.
        check_started = perf_counter()
        final_report = self.incremental_conflicts.check(solution)
        self.phases.add("check", perf_counter() - check_started)
        final_defects = (len(solution.failed_nets()), final_report.conflict_count)
        if (
            campaign.best_defects is not None
            and campaign.best_defects < final_defects
            and campaign.best_routes is not None
        ):
            solution.routes = campaign.best_routes
        # Surface the executor's supervision counters on the campaign
        # before declaring it done (checkpointed or not).
        campaign.update_executor_stats(self.batch_executor)
        campaign.done = True

        for route in solution.routes.values():
            route.recount_stitches()
        solution.iterations = iterations
        solution.runtime_seconds = timer.stop()
        if self.batch_executor is not None:
            self.batch_executor.close()  # release pool workers between runs
        return solution

    def schedule_nets(self) -> List[Net]:
        """Return the routing order (small, pin-heavy nets first)."""
        return sorted(
            self.design.routable_nets(),
            key=lambda net: (net.half_perimeter_wirelength(), -net.num_pins, net.name),
        )

    def _route_many(self, nets: List[Net], solution: RoutingSolution) -> None:
        """Route *nets* in order -- batched when an executor is configured."""
        if self.batch_executor is not None:
            self.batch_executor.route_nets(nets, solution)
        else:
            search_started = perf_counter()
            for net in nets:
                solution.add_route(self.route_net(net))
            self.phases.add("search", perf_counter() - search_started)

    def make_search_engine(self) -> ColorStateSearch:
        """Return a fresh color-state engine over this router's grid.

        The batch executor creates one per worker so concurrent searches
        never share label buffers.
        """
        return ColorStateSearch(self.grid, self.cost_model)

    # ------------------------------------------------------------------
    # Single-net routing (Fig. 2 centre and right columns, Algorithm 1)
    # ------------------------------------------------------------------

    def route_net(self, net: Net) -> NetRoute:
        """Route one multi-pin net with color-state searching.

        Computes the route and commits it to the grid immediately
        (:meth:`compute_route` with the default :class:`GridSink`).
        """
        return self.compute_route(net)

    def compute_route(
        self, net: Net, engine: Optional[object] = None, sink: Optional[object] = None
    ) -> NetRoute:
        """Route one net (paper Algorithm 1) through *engine*, sending grid
        commits to *sink*.

        Follows Algorithm 1: seed the queue with the vertices covered by the
        first pin at color state ``111``, repeatedly search until an
        unreached pin is found, backtrace to color the path, and keep the
        colored path vertices as sources for the next search until every pin
        is routed.  With a :class:`~repro.sched.commit.RecordingSink` the
        grid stays untouched (colors/occupancy logged for deferred replay);
        the searches still see exact costs because the net's own deferred
        pressure contribution cancels out of its color costs.
        """
        if engine is None:
            engine = self.search_engine
        if sink is None:
            sink = GridSink(self.grid, net.name)
        route = NetRoute(net_name=net.name)
        pin_groups = [self.grid.pin_access_vertices(pin) for pin in net.pins]
        if any(not group for group in pin_groups):
            route.routed = False
            route.failure_reason = "pin without reachable access vertex"
            return route

        tree_colors: Dict[GridPoint, int] = {}
        tree_vertices: Set[GridPoint] = set(pin_groups[0])
        route.vertices.update(tree_vertices)
        unreached = list(range(1, len(pin_groups)))

        while unreached:
            sources = self._source_states(tree_vertices, tree_colors)
            targets: Dict[GridPoint, int] = {}
            for index in unreached:
                for vertex in pin_groups[index]:
                    if vertex not in tree_vertices:
                        targets.setdefault(vertex, index)
            if not targets:
                # Remaining pins are already covered by the routed tree.
                unreached.clear()
                break
            search = engine.search(sources, set(targets), net.name)
            if not search.found:
                route.routed = False
                route.failure_reason = "color-state search exhausted without reaching a pin"
                break
            colored_path = self.backtracer.backtrace(search, net.name, tree_colors)
            apply_colored_path(colored_path, route, sink)
            tree_colors.update(colored_path.colors())

            reached_pin = targets[search.reached]
            unreached.remove(reached_pin)
            tree_vertices.update(colored_path.vertices)
            tree_vertices.update(pin_groups[reached_pin])
            route.vertices.update(pin_groups[reached_pin])
            for vertex in pin_groups[reached_pin]:
                sink.occupy(vertex)

        if route.routed:
            for vertex in tree_vertices:
                sink.occupy(vertex)
            route.recount_stitches()
        return route

    # ------------------------------------------------------------------
    # Rip-up & history update (Fig. 2 "Rip Up & Update History Cost")
    # ------------------------------------------------------------------

    def _rip_up_and_update_history(
        self,
        offenders: Set[str],
        report: ConflictReport,
        solution: RoutingSolution,
    ) -> None:
        for location in report.conflict_locations():
            self.grid.add_history(location, 1.0)
        for net_name in offenders:
            self.grid.release_net(net_name)
            route = solution.routes.get(net_name)
            if route is not None:
                for vertex in route.vertices:
                    self.grid.add_history(vertex, 0.25)
            solution.routes.pop(net_name, None)

    # ------------------------------------------------------------------

    def _source_states(
        self,
        tree_vertices: Set[GridPoint],
        tree_colors: Dict[GridPoint, int],
    ) -> Dict[GridPoint, ColorState]:
        """Return search sources: tree vertices with their committed color states.

        Fresh (pin-only) vertices start fully flexible at ``111``; vertices
        that already carry routed metal of this net are constrained to the
        committed mask so that attaching a different mask is charged as a
        stitch by the search.
        """
        sources: Dict[GridPoint, ColorState] = {}
        for vertex in tree_vertices:
            color = tree_colors.get(vertex)
            sources[vertex] = (
                ColorState.single(color) if color is not None else ColorState.all()
            )
        return sources

    # ------------------------------------------------------------------

    def conflict_report(self, solution: RoutingSolution) -> ConflictReport:
        """Return the conflict report of *solution* on this router's grid.

        Served from the incremental tallies (route-object identity detects
        snapshot restores and external edits); the full-scan
        :attr:`conflict_checker` remains available as the reference oracle.
        """
        return self.incremental_conflicts.check(solution)
