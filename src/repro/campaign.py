"""The rip-up campaign shared by all three routers, and its resumable state.

A routing campaign is the outer negotiation loop of paper Fig. 2: initial
routing, then up to ``max_iterations`` rounds of check / rip-up (with a
history-cost update) / reroute.  :class:`CampaignRouter` runs that loop
once for every router; a router supplies only its engine
(``make_search_engine``, ``compute_route``) and two loop steps:

* ``_check(solution)`` returns the nets in a defect, the defect count
  (conflicts, or shorted nets) and the evidence its rip-up step reads (the
  conflict report, or ``None``).  The loop adds the failed nets to the
  offenders and ranks the iteration by ``(failed nets, defect count)``;
* ``_rip_up(offenders, evidence, solution)`` releases the offenders and
  bumps the router's history costs.

Rip-up and reroute can oscillate, so the loop keeps the best iteration by
defect key and, when the last one is worse, restores it -- on the grid as
well as in the solution (:meth:`CampaignRouter._restore`).

:class:`CampaignState` reifies the loop position so a campaign can be
checkpointed **every iteration** and a preempted one resumed from its last
completed round:

* ``iteration`` -- completed rip-up rounds (``0`` right after initial
  routing; the loop resumes at pass ``iteration``).
* ``solution`` -- the live solution object the loop mutates.  ``None``
  until initial routing has run, which is how ``run()`` distinguishes a
  fresh campaign from a resumed one.
* ``best_defects`` / ``best_routes`` -- the keep-the-best-iteration
  tracking (defect key and the route snapshot it belongs to).  They must
  travel with the checkpoint: a resumed campaign that forgot a better
  earlier iteration would return a different solution than the
  uninterrupted run.
* ``done`` -- set by ``run()`` on normal completion, so a checkpoint of a
  finished campaign is returned as-is instead of re-entering the loop.

The dataclass itself is storage-only; (de)serialisation lives in
:mod:`repro.io.checkpoint_io` (``campaign_to_dict`` /
``campaign_from_dict``) next to the checkpoint document code.

Resumability contract (what makes resume bit-identical): the checkpoint
restores the grid byte for byte from its snapshot
(:meth:`RoutingGrid.snapshot_state`), every router iterates rip-up /
reroute sets in sorted order wherever order can reach a search result, and
keeps all remaining cross-iteration state in this object.  The incremental
checkers need no persistence -- rebuilt fresh over the restored grid they
produce the same tallies as the warm ones (their differential guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.design import Design, Net
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.profiling import PhaseTimes
from repro.sched import GridSink, make_batch_executor
from repro.utils import Timer, get_logger

_LOG = get_logger("campaign")


@dataclass
class CampaignState:
    """Position and carried state of one rip-up/reroute campaign."""

    iteration: int = 0
    solution: Optional[RoutingSolution] = None
    best_defects: Optional[Tuple[int, int]] = None
    best_routes: Optional[Dict[str, NetRoute]] = None
    done: bool = False
    #: Cumulative :class:`~repro.sched.executor.ExecutorStats` counters of
    #: the whole campaign, across preemptions: on resume the checkpointed
    #: counters become the baseline and the new executor's (process-local)
    #: counters are added on top, so a campaign's history -- batches,
    #: worker errors, checkpoint fallbacks, phase seconds -- survives
    #: restarts.
    executor_stats: Optional[Dict[str, int]] = None
    # Baseline captured from a resumed checkpoint at the first
    # update_executor_stats call (the live executor restarts at zero).
    _stats_baseline: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def started(self) -> bool:
        """Return whether initial routing has already happened."""
        return self.solution is not None

    def update_executor_stats(self, executor) -> None:
        """Fold *executor*'s live counters into the campaign's history.

        Safe to call with ``None`` (serial campaigns have no executor).
        Idempotent per executor state: the merged view is always baseline
        (what the checkpoint already recorded when this process started)
        plus the executor's current counters, never a double count.
        """
        if executor is None:
            return
        current = executor.stats.as_dict()
        if self._stats_baseline is None:
            self._stats_baseline = dict(self.executor_stats or {})
        merged = dict(self._stats_baseline)
        for key, value in current.items():
            if isinstance(value, dict):
                # Nested numeric records (phase_seconds) merge key-by-key;
                # copied so the checkpoint never aliases live executor state.
                baseline = merged.get(key)
                baseline = dict(baseline) if isinstance(baseline, dict) else {}
                for inner_key, inner_value in value.items():
                    baseline[inner_key] = baseline.get(inner_key, 0) + inner_value
                merged[key] = baseline
            else:
                merged[key] = merged.get(key, 0) + value
        self.executor_stats = merged

    def note_checkpoint_fallback(self) -> None:
        """Record that resume fell back to an older retained checkpoint."""
        if self._stats_baseline is None:
            self._stats_baseline = dict(self.executor_stats or {})
        self._stats_baseline["checkpoint_fallbacks"] = (
            self._stats_baseline.get("checkpoint_fallbacks", 0) + 1
        )
        stats = dict(self.executor_stats or {})
        stats["checkpoint_fallbacks"] = stats.get("checkpoint_fallbacks", 0) + 1
        self.executor_stats = stats


class CampaignRouter:
    """Base of the three routers: set-up, net order and the rip-up loop.

    The ``parallelism`` / ``batch_backend`` arguments switch routing onto
    the :mod:`repro.sched` disjoint-batch executor (``batch_backend`` one
    of ``serial`` / ``pool``; ``min_fork_batch`` is the smallest batch
    worth forking pool workers for); the defaults keep the plain
    sequential loop.
    """

    name = ""

    def __init__(
        self,
        design: Design,
        grid: Optional[RoutingGrid],
        max_iterations: Optional[int],
        parallelism: int,
        batch_backend: str,
        min_fork_batch: Optional[int],
    ) -> None:
        self.design = design
        self.grid = grid if grid is not None else RoutingGrid(design)
        self.max_iterations = (
            max_iterations
            if max_iterations is not None
            else design.tech.rules.max_ripup_iterations
        )
        self.batch_executor = make_batch_executor(
            self, parallelism, batch_backend, min_fork_batch
        )
        # Per-phase wall-clock record: shared with the executor's stats when
        # one is engaged, so campaign merges and bench JSON see one record.
        self.phases = (
            self.batch_executor.stats.phases
            if self.batch_executor is not None
            else PhaseTimes()
        )

    def run(
        self,
        *,
        campaign: Optional[CampaignState] = None,
        on_iteration: Optional[Callable[[CampaignState], None]] = None,
    ) -> RoutingSolution:
        """Route every net, negotiate defects, and return the best solution.

        *campaign* makes the rip-up loop resumable: a fresh
        :class:`CampaignState` records the loop position and the best
        iteration as it advances, and one loaded from a checkpoint (grid
        already restored, solution attached) resumes at its last completed
        iteration instead of routing from scratch.  *on_iteration* fires
        after initial routing (iteration 0) and after every completed
        rip-up round -- :func:`~repro.eval.experiments.route_with_checkpoint`
        saves its per-iteration checkpoints from exactly this hook.
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
            offenders, defects, evidence = self._timed_check(solution)
            if campaign.best_defects is None or defects < campaign.best_defects:
                campaign.best_defects = defects
                campaign.best_routes = dict(solution.routes)
            if not offenders:
                break
            iterations = iteration + 1
            _LOG.info(
                "%s iteration %d: %d failed nets, %d defects, ripping up %d nets",
                self.name,
                iterations,
                defects[0],
                defects[1],
                len(offenders),
            )
            # PathFinder-style negotiation: fade stale congestion evidence
            # before this iteration's rip-up adds fresh history.
            self.grid.decay_history(self.grid.rules.history_decay)
            self._rip_up(offenders, evidence, solution)
            # Sorted: the reroute order reaches search results, and set
            # iteration order is per-process (hash randomisation) -- an
            # unsorted walk would break the resume-equals-uninterrupted
            # guarantee across processes.
            self._route_many(
                [self.design.net_by_name(name) for name in sorted(offenders)], solution
            )
            campaign.iteration = iterations
            if on_iteration is not None:
                on_iteration(campaign)

        if campaign.best_defects is not None:
            _offenders, final_defects, _evidence = self._timed_check(solution)
            if campaign.best_defects < final_defects:
                self._restore(solution, campaign.best_routes)
        # Surface the executor's counters on the campaign before declaring
        # it done (checkpointed or not).
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
        """Return routable nets ordered for sequential routing.

        Small-bounding-box, high-pin-count nets first: they have the fewest
        detour options, the same ordering rationale Dr.CU uses.
        """
        return sorted(
            self.design.routable_nets(),
            key=lambda net: (net.half_perimeter_wirelength(), -net.num_pins, net.name),
        )

    def route_net(self, net: Net) -> NetRoute:
        """Route one net and commit it to the grid immediately.

        :meth:`compute_route` with the router's own engine and the default
        :class:`~repro.sched.commit.GridSink`.
        """
        return self.compute_route(net)

    def _route_many(self, nets: List[Net], solution: RoutingSolution) -> None:
        """Route *nets* in order -- batched when an executor is configured."""
        if self.batch_executor is not None:
            self.batch_executor.route_nets(nets, solution)
        else:
            search_started = perf_counter()
            for net in nets:
                solution.add_route(self.route_net(net))
            self.phases.add("search", perf_counter() - search_started)

    def _timed_check(self, solution: RoutingSolution):
        check_started = perf_counter()
        offenders, defect_count, evidence = self._check(solution)
        failed = solution.failed_nets()
        offenders.update(route.net_name for route in failed)
        self.phases.add("check", perf_counter() - check_started)
        return offenders, (len(failed), defect_count), evidence

    def _restore(self, solution: RoutingSolution, best_routes: Dict[str, NetRoute]) -> None:
        """Put the best iteration's routes back, in the solution and on the grid.

        Only nets whose best route differs in content from the final one
        move -- by content, so a resumed campaign (whose routes were
        rebuilt from a checkpoint) restores the same nets.  Every one of
        them is released before any is re-committed: a release that leaves
        a vertex with several owners zeroes its mask colour, including a
        colour a re-committed net just put there.  The re-commits go through
        :class:`~repro.sched.commit.GridSink`, so the journal and the delta
        listeners see the restore like any other commit.
        """
        changed = sorted(
            name for name, route in best_routes.items() if solution.routes.get(name) != route
        )
        for name in changed:
            self.grid.release_net(name)
        for name in changed:
            route = best_routes[name]
            sink = GridSink(self.grid, name)
            for vertex, color in route.vertex_colors.items():
                sink.set_color(vertex, color)
            # A failed route's own commit stopped at its partial paths (and,
            # for Mr.TPL, their pins): re-occupy its coloured vertices only.
            for vertex in route.vertices if route.routed else route.vertex_colors:
                sink.occupy(vertex)
            solution.routes[name] = route

    # -- supplied by each router -------------------------------------------

    def _check(self, solution: RoutingSolution) -> Tuple[Set[str], int, object]:
        """Return ``(nets in a defect, defect count, evidence)``."""
        raise NotImplementedError

    def _rip_up(self, offenders: Set[str], evidence: object, solution: RoutingSolution) -> None:
        """Release *offenders* and bump history costs from *evidence*."""
        raise NotImplementedError
