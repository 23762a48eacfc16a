"""Experiment harnesses regenerating every table and figure of the paper.

* :func:`run_table2` -- Table II: Mr.TPL vs the DAC-2012 baseline on the
  ISPD-2018-like suite (conflicts, stitches, ISPD cost, runtime, speedup).
* :func:`run_table3` -- Table III: Mr.TPL vs routing-then-decomposition
  (plain detailed router + OpenMPL-like decomposer) on the ISPD-2019-like
  suite (conflicts, stitches).
* :func:`run_fig1_examples` -- the qualitative Fig. 1 scenarios.
* :func:`run_fig3_walkthrough` -- the Fig. 3 color-state walk-through.
* :func:`route_with_checkpoint` -- resumable routing: the campaign is
  checkpointed to disk after every rip-up round as a grid snapshot plus
  the solution; a rerun restores the exact grid + solution from the
  checkpoint instead of routing again.

Each harness returns plain dataclass rows so the benchmark scripts, the
examples and ``EXPERIMENTS.md`` all consume the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines import Dac2012Router, LayoutDecomposer
from repro.bench.micro import fig1_dense_cluster, fig1_multi_pin_net, fig3_walkthrough_design
from repro.bench.suites import SuiteCase, ispd18_suite, ispd19_suite
from repro.design import Design
from repro.dr import DetailedRouter
from repro.eval.metrics import EvaluationResult, evaluate_solution
from repro.gr import GlobalRouter, GuideSet
from repro.grid import RoutingGrid
from repro.tpl import ConflictChecker, MrTPLRouter
from repro.utils import get_logger

_LOG = get_logger("eval.experiments")


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------

@dataclass
class Table2Row:
    """One case row of Table II (baseline [5] vs Mr.TPL)."""

    case: str
    baseline: EvaluationResult
    ours: EvaluationResult

    @property
    def conflict_improvement(self) -> float:
        """Return the relative conflict reduction (1.0 = all conflicts removed)."""
        return _improvement(self.baseline.conflicts, self.ours.conflicts)

    @property
    def stitch_improvement(self) -> float:
        """Return the relative stitch reduction."""
        return _improvement(self.baseline.stitches, self.ours.stitches)

    @property
    def cost_improvement(self) -> float:
        """Return the relative ISPD-score reduction."""
        return _improvement(self.baseline.score, self.ours.score)

    @property
    def speedup(self) -> float:
        """Return baseline runtime / Mr.TPL runtime."""
        if self.ours.runtime_seconds <= 0:
            return float("inf")
        return self.baseline.runtime_seconds / self.ours.runtime_seconds

    def as_dict(self) -> Dict[str, float]:
        """Return the row as a flat dictionary (benchmark / report friendly)."""
        return {
            "case": self.case,
            "baseline_conflicts": self.baseline.conflicts,
            "ours_conflicts": self.ours.conflicts,
            "conflict_improvement": self.conflict_improvement,
            "baseline_stitches": self.baseline.stitches,
            "ours_stitches": self.ours.stitches,
            "stitch_improvement": self.stitch_improvement,
            "baseline_cost": self.baseline.score,
            "ours_cost": self.ours.score,
            "cost_improvement": self.cost_improvement,
            "baseline_runtime": self.baseline.runtime_seconds,
            "ours_runtime": self.ours.runtime_seconds,
            "speedup": self.speedup,
        }


def run_table2_case(
    case: SuiteCase,
    max_iterations: Optional[int] = None,
    use_global_router: bool = True,
    parallelism: int = 1,
    batch_backend: str = "serial",
    min_fork_batch: Optional[int] = None,
) -> Table2Row:
    """Run the Table II comparison on a single suite case.

    Both routers receive identical, independently constructed grids and the
    same GR guides (built once and shared) so neither benefits from the
    other's routing state.  ``parallelism`` / ``batch_backend`` switch both
    routers onto the :mod:`repro.sched` batched rip-up loop (results stay
    bit-identical to the sequential loop).
    """
    design_for_baseline = case.build()
    design_for_ours = case.build()

    guides_baseline = GlobalRouter(design_for_baseline).route() if use_global_router else None
    guides_ours = GlobalRouter(design_for_ours).route() if use_global_router else None

    baseline_grid = RoutingGrid(design_for_baseline)
    baseline_router = Dac2012Router(
        design_for_baseline,
        grid=baseline_grid,
        guides=guides_baseline,
        use_global_router=False,
        max_iterations=max_iterations,
        parallelism=parallelism,
        batch_backend=batch_backend,
        min_fork_batch=min_fork_batch,
    )
    baseline_solution = baseline_router.run()
    baseline_eval = evaluate_solution(
        design_for_baseline, baseline_grid, baseline_solution, guides_baseline
    )

    ours_grid = RoutingGrid(design_for_ours)
    ours_router = MrTPLRouter(
        design_for_ours,
        grid=ours_grid,
        guides=guides_ours,
        use_global_router=False,
        max_iterations=max_iterations,
        parallelism=parallelism,
        batch_backend=batch_backend,
        min_fork_batch=min_fork_batch,
    )
    ours_solution = ours_router.run()
    ours_eval = evaluate_solution(design_for_ours, ours_grid, ours_solution, guides_ours)

    return Table2Row(case=case.name, baseline=baseline_eval, ours=ours_eval)


def run_table2(
    scale: float = 1.0,
    cases: Optional[Sequence[int]] = None,
    max_iterations: Optional[int] = None,
    parallelism: int = 1,
    batch_backend: str = "serial",
    min_fork_batch: Optional[int] = None,
) -> List[Table2Row]:
    """Run the full Table II experiment over the ISPD-2018-like suite."""
    suite = ispd18_suite(scale, cases=list(cases) if cases is not None else None)
    rows = []
    for case in suite:
        _LOG.info("Table II case %s", case.name)
        rows.append(
            run_table2_case(
                case,
                max_iterations=max_iterations,
                parallelism=parallelism,
                batch_backend=batch_backend,
                min_fork_batch=min_fork_batch,
                    )
        )
    return rows


def summarize_table2(rows: Sequence[Table2Row]) -> Dict[str, float]:
    """Return the per-case-averaged improvements the paper's last row reports."""
    if not rows:
        return {
            "avg_conflict_improvement": 0.0,
            "avg_stitch_improvement": 0.0,
            "avg_cost_improvement": 0.0,
            "avg_speedup": 0.0,
            "max_speedup": 0.0,
        }
    return {
        "avg_conflict_improvement": _mean([row.conflict_improvement for row in rows]),
        "avg_stitch_improvement": _mean([row.stitch_improvement for row in rows]),
        "avg_cost_improvement": _mean([row.cost_improvement for row in rows]),
        "avg_speedup": _mean([row.speedup for row in rows if row.speedup != float("inf")]),
        "max_speedup": max(row.speedup for row in rows),
    }


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------

@dataclass
class Table3Row:
    """One case row of Table III (OpenMPL-like decomposition vs Mr.TPL)."""

    case: str
    decomposition_conflicts: int
    decomposition_stitches: int
    ours_conflicts: int
    ours_stitches: int
    decomposition_runtime: float = 0.0
    ours_runtime: float = 0.0

    @property
    def conflict_improvement(self) -> float:
        """Return the relative conflict reduction of Mr.TPL over decomposition."""
        return _improvement(self.decomposition_conflicts, self.ours_conflicts)

    @property
    def stitch_improvement(self) -> float:
        """Return the relative stitch reduction of Mr.TPL over decomposition."""
        return _improvement(self.decomposition_stitches, self.ours_stitches)

    def as_dict(self) -> Dict[str, float]:
        """Return the row as a flat dictionary."""
        return {
            "case": self.case,
            "decomposition_conflicts": self.decomposition_conflicts,
            "ours_conflicts": self.ours_conflicts,
            "conflict_improvement": self.conflict_improvement,
            "decomposition_stitches": self.decomposition_stitches,
            "ours_stitches": self.ours_stitches,
            "stitch_improvement": self.stitch_improvement,
        }


def run_table3_case(
    case: SuiteCase,
    max_iterations: Optional[int] = None,
    use_global_router: bool = True,
    parallelism: int = 1,
    batch_backend: str = "serial",
    min_fork_batch: Optional[int] = None,
) -> Table3Row:
    """Run the Table III comparison on a single suite case.

    The decomposition side first routes the design with the TPL-unaware
    detailed router (the stand-in for Dr.CU 2.0) and then colors the
    unchanged layout with the OpenMPL-like decomposer; the Mr.TPL side
    routes the identical design with color-state searching.
    """
    design_for_decomposition = case.build()
    design_for_ours = case.build()

    guides_decomp = (
        GlobalRouter(design_for_decomposition).route() if use_global_router else None
    )
    guides_ours = GlobalRouter(design_for_ours).route() if use_global_router else None

    decomp_grid = RoutingGrid(design_for_decomposition)
    plain_router = DetailedRouter(
        design_for_decomposition,
        grid=decomp_grid,
        guides=guides_decomp,
        max_iterations=max_iterations,
        parallelism=parallelism,
        batch_backend=batch_backend,
        min_fork_batch=min_fork_batch,
    )
    plain_solution = plain_router.run()
    decomposer = LayoutDecomposer(design_for_decomposition, decomp_grid)
    decomposition = decomposer.decompose(plain_solution)

    ours_grid = RoutingGrid(design_for_ours)
    ours_router = MrTPLRouter(
        design_for_ours,
        grid=ours_grid,
        guides=guides_ours,
        use_global_router=False,
        max_iterations=max_iterations,
        parallelism=parallelism,
        batch_backend=batch_backend,
        min_fork_batch=min_fork_batch,
    )
    ours_solution = ours_router.run()
    # The same full-scan oracle scores both columns.
    ours_conflicts = ConflictChecker(design_for_ours, ours_grid).check(ours_solution)

    return Table3Row(
        case=case.name,
        decomposition_conflicts=decomposition.conflicts,
        decomposition_stitches=decomposition.stitches,
        ours_conflicts=ours_conflicts.conflict_count,
        ours_stitches=ours_solution.total_stitches(),
        decomposition_runtime=plain_solution.runtime_seconds + decomposition.runtime_seconds,
        ours_runtime=ours_solution.runtime_seconds,
    )


def run_table3(
    scale: float = 1.0,
    cases: Optional[Sequence[int]] = None,
    max_iterations: Optional[int] = None,
    parallelism: int = 1,
    batch_backend: str = "serial",
    min_fork_batch: Optional[int] = None,
) -> List[Table3Row]:
    """Run the full Table III experiment over the ISPD-2019-like suite."""
    suite = ispd19_suite(scale, cases=list(cases) if cases is not None else None)
    rows = []
    for case in suite:
        _LOG.info("Table III case %s", case.name)
        rows.append(
            run_table3_case(
                case,
                max_iterations=max_iterations,
                parallelism=parallelism,
                batch_backend=batch_backend,
                min_fork_batch=min_fork_batch,
                    )
        )
    return rows


def summarize_table3(rows: Sequence[Table3Row]) -> Dict[str, float]:
    """Return the averaged improvements of the Table III comparison."""
    if not rows:
        return {"avg_conflict_improvement": 0.0, "avg_stitch_improvement": 0.0}
    return {
        "avg_conflict_improvement": _mean([row.conflict_improvement for row in rows]),
        "avg_stitch_improvement": _mean([row.stitch_improvement for row in rows]),
    }


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

@dataclass
class FigureResult:
    """Outcome of one qualitative figure scenario."""

    scenario: str
    metrics_by_router: Dict[str, EvaluationResult] = field(default_factory=dict)

    def conflicts(self, router: str) -> int:
        """Return the conflict count of *router* on this scenario."""
        return self.metrics_by_router[router].conflicts

    def stitches(self, router: str) -> int:
        """Return the stitch count of *router* on this scenario."""
        return self.metrics_by_router[router].stitches


def run_fig1_examples(max_iterations: Optional[int] = None) -> List[FigureResult]:
    """Run the Fig. 1 scenarios through all three approaches.

    Scenario (a)/(b): the dense 4-net cluster -- decomposition after plain
    routing versus Mr.TPL.  Scenario (c)/(d): the 4-pin net -- the 2-pin
    DAC-2012 baseline versus Mr.TPL.
    """
    results: List[FigureResult] = []

    cluster = FigureResult(scenario="fig1_dense_cluster")
    design_decomp = fig1_dense_cluster()
    grid_decomp = RoutingGrid(design_decomp)
    plain = DetailedRouter(design_decomp, grid=grid_decomp, max_iterations=max_iterations)
    plain_solution = plain.run()
    decomposition = LayoutDecomposer(design_decomp, grid_decomp).decompose(plain_solution)
    cluster.metrics_by_router["decomposition"] = evaluate_solution(
        design_decomp, grid_decomp, decomposition.solution
    )
    design_ours = fig1_dense_cluster()
    grid_ours = RoutingGrid(design_ours)
    ours = MrTPLRouter(design_ours, grid=grid_ours, use_global_router=False,
                       max_iterations=max_iterations)
    cluster.metrics_by_router["mr-tpl"] = evaluate_solution(
        design_ours, grid_ours, ours.run()
    )
    results.append(cluster)

    multi = FigureResult(scenario="fig1_multi_pin_net")
    design_baseline = fig1_multi_pin_net()
    grid_baseline = RoutingGrid(design_baseline)
    baseline = Dac2012Router(
        design_baseline, grid=grid_baseline, use_global_router=False,
        max_iterations=max_iterations,
    )
    multi.metrics_by_router["dac2012"] = evaluate_solution(
        design_baseline, grid_baseline, baseline.run()
    )
    design_ours2 = fig1_multi_pin_net()
    grid_ours2 = RoutingGrid(design_ours2)
    ours2 = MrTPLRouter(design_ours2, grid=grid_ours2, use_global_router=False,
                        max_iterations=max_iterations)
    multi.metrics_by_router["mr-tpl"] = evaluate_solution(
        design_ours2, grid_ours2, ours2.run()
    )
    results.append(multi)
    return results


@dataclass
class Fig3Result:
    """Outcome of the Fig. 3 walk-through."""

    evaluation: EvaluationResult
    colors_used: Dict[int, int]
    stitches: int
    conflicts: int


def run_fig3_walkthrough(max_iterations: Optional[int] = None) -> Fig3Result:
    """Route the Fig. 3 design with Mr.TPL and summarise the coloring."""
    design = fig3_walkthrough_design()
    grid = RoutingGrid(design)
    router = MrTPLRouter(design, grid=grid, use_global_router=False,
                         max_iterations=max_iterations)
    solution = router.run()
    evaluation = evaluate_solution(design, grid, solution)
    colors_used: Dict[int, int] = {0: 0, 1: 0, 2: 0}
    for route in solution.routes.values():
        for color in route.node_colors.values():
            colors_used[color] += 1
    return Fig3Result(
        evaluation=evaluation,
        colors_used=colors_used,
        stitches=evaluation.stitches,
        conflicts=evaluation.conflicts,
    )


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

def route_with_checkpoint(
    design: Design,
    router_cls,
    checkpoint_path: Union[str, Path],
    checkpoint_every: int = 1,
    on_checkpoint=None,
    checkpoint_keep: Optional[int] = None,
    **router_kwargs,
) -> Tuple["RoutingSolution", RoutingGrid, bool]:
    """Route *design* with *router_cls*, checkpointing **every iteration**.

    When *checkpoint_path* does not exist the design is routed and the
    campaign is checkpointed after initial routing and after every
    *checkpoint_every*-th completed rip-up iteration (plus once more at the
    end): each save atomically writes a ``repro-checkpoint-v3`` document
    holding the grid snapshot (:meth:`RoutingGrid.snapshot_state`), the
    in-progress solution and the campaign cursor -- so checkpoint size and
    restore time stay bounded by the grid, not by campaign age.

    When the path exists, the campaign is **resumed**: the checkpoint is
    loaded, verified to describe the *same* design and router (a stale
    checkpoint for a different case/scale raises rather than silently
    returning the wrong campaign), and the grid restored bit-identically
    from the snapshot.  A finished campaign's
    solution is returned without routing anything; an **interrupted** one
    (the process died mid-campaign -- preemption, SIGKILL) re-enters the
    rip-up loop at its last completed iteration and finishes the campaign,
    producing a solution bit-identical to the uninterrupted run's.

    Fault tolerance: each save retains the previous *checkpoint_keep*
    generations (default: the ``REPRO_CHECKPOINT_KEEP`` env knob, 2) and
    resume falls back to the newest generation whose integrity checksum
    validates, so a torn or corrupted newest file costs at most one
    checkpoint interval, not the campaign.  Rotation retains only a live
    document that validates, so a resume from a fallback generation never
    overwrites that generation with the torn file.  The campaign's
    cumulative executor counters (worker errors, checkpoint fallbacks,
    phase seconds, ...) are carried in the checkpoint and keep
    accumulating across resumes.

    *on_checkpoint* (called with the :class:`~repro.campaign.CampaignState`
    after each save) exists for tests and progress streaming.  Returns
    ``(solution, grid, resumed)``.
    """
    from repro.campaign import CampaignState
    from repro.io.json_io import design_to_dict
    from repro.io.checkpoint_io import (
        checkpoint_campaign,
        checkpoint_candidates,
        checkpoint_from_dict,
        load_checkpoint_document_with_fallback,
        save_checkpoint,
    )

    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    path = Path(checkpoint_path)
    campaign = None
    resumed = False
    used_fallback = False
    if any(candidate.exists() for candidate in checkpoint_candidates(path, checkpoint_keep)):
        _LOG.info("resuming campaign from checkpoint %s", path)
        document, used_path = load_checkpoint_document_with_fallback(
            path, checkpoint_keep
        )
        if used_path != path:
            used_fallback = True
            _LOG.warning(
                "checkpoint %s is corrupt; resuming from retained generation %s",
                path, used_path,
            )
        saved_design, grid, solution = checkpoint_from_dict(document)
        if design_to_dict(saved_design) != design_to_dict(design):
            raise ValueError(
                f"checkpoint {path} was recorded for design "
                f"{saved_design.name!r}, which differs from the requested "
                f"design {design.name!r}; delete the checkpoint to reroute"
            )
        if solution is None:
            raise ValueError(f"checkpoint {path} holds no routing solution")
        expected_router = getattr(router_cls, "name", router_cls.__name__)
        if solution.router_name != expected_router:
            raise ValueError(
                f"checkpoint {path} holds a {solution.router_name!r} "
                f"campaign, not the requested {expected_router!r}; "
                "delete the checkpoint to reroute"
            )
        campaign = checkpoint_campaign(document, solution)
        if campaign is None or campaign.done:
            return solution, grid, True
        if used_fallback:
            campaign.note_checkpoint_fallback()
        _LOG.info(
            "checkpoint holds an interrupted campaign; resuming at iteration %d",
            campaign.iteration,
        )
        resumed = True
    else:
        grid = RoutingGrid(design)
        campaign = CampaignState()
    router = router_cls(design, grid=grid, **router_kwargs)

    def _checkpoint(state) -> None:
        if state.iteration % checkpoint_every and not state.done:
            return
        # Surface the executor's counters (worker errors, phase seconds,
        # ...) into the persisted campaign state, on top of whatever an
        # earlier (preempted) life already recorded.
        state.update_executor_stats(getattr(router, "batch_executor", None))
        checkpoint_started = perf_counter()
        save_checkpoint(
            path, design, grid, state.solution, state, keep=checkpoint_keep
        )
        # The save cost of this very checkpoint lands in the *next*
        # saved stats record (update_executor_stats ran above); the live
        # PhaseTimes record sees it immediately.
        phases = getattr(router, "phases", None)
        if phases is not None:
            phases.add("checkpoint", perf_counter() - checkpoint_started)
        if on_checkpoint is not None:
            on_checkpoint(state)

    solution = router.run(campaign=campaign, on_iteration=_checkpoint)
    # Final save: records done=True (and the best-iteration swap /
    # post-processing the routers apply after their loop).
    _checkpoint(campaign)
    return solution, grid, resumed


# ----------------------------------------------------------------------

def _improvement(baseline: float, ours: float) -> float:
    """Return the relative reduction of *ours* versus *baseline* in [~, 1]."""
    if baseline <= 0:
        return 0.0 if ours <= 0 else -1.0
    return (baseline - ours) / baseline


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
