"""Experiment drivers regenerating every table and figure of the paper.

* :func:`run_table` -- Table II (Mr.TPL vs the DAC-2012 baseline on the
  ISPD-2018-like suite) or Table III (Mr.TPL vs routing-then-decomposition:
  plain detailed router + OpenMPL-like decomposer, on the ISPD-2019-like
  suite).  One :class:`TableRow` per case, built by :func:`compare_case`,
  holds a full :func:`evaluate_solution` of each column: conflicts,
  stitches, shorts, failed nets, iterations, ISPD cost and runtime.
* :func:`run_fig1_examples` -- the qualitative Fig. 1 scenarios.
* :func:`run_fig3_walkthrough` -- the Fig. 3 color-state walk-through.
* :func:`route_with_checkpoint` -- resumable routing: the campaign is
  checkpointed to disk after every rip-up round as a grid snapshot plus
  the solution; a rerun restores the exact grid + solution from the
  checkpoint instead of routing again.

Each driver returns plain dataclass rows, so ``scripts/run_experiments.py``
and the examples print the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.accel import get_check_kernel, get_native_kernel
from repro.baselines import Dac2012Router, LayoutDecomposer
from repro.bench.micro import fig1_dense_cluster, fig1_multi_pin_net, fig3_walkthrough_design
from repro.bench.suites import SuiteCase, ispd18_suite, ispd19_suite
from repro.design import Design
from repro.dr import DetailedRouter
from repro.eval.metrics import EvaluationResult, evaluate_solution
from repro.eval.report import format_table
from repro.gr import GlobalRouter, GuideSet
from repro.grid import RoutingGrid
from repro.tpl import MrTPLRouter
from repro.utils import get_logger

_LOG = get_logger("eval.experiments")


# ----------------------------------------------------------------------
# Tables II and III
# ----------------------------------------------------------------------

#: The baseline flow of each table and the suite it runs on: Table II
#: races the DAC-2012 router on the ISPD-2018-like suite, Table III
#: route-then-decompose on the ISPD-2019-like suite.
TABLE_BASELINES: Dict[str, Tuple[str, Callable[..., List[SuiteCase]]]] = {
    "II": ("dac2012", ispd18_suite),
    "III": ("decompose", ispd19_suite),
}

#: The columns :func:`format_rows` prints as ``baseline/Mr.TPL``:
#: (header, :class:`EvaluationResult` field, format).
_ROW_COLUMNS = (
    ("conflicts", "conflicts", "{}"),
    ("stitches", "stitches", "{}"),
    ("shorts", "shorts", "{}"),
    ("failed nets", "failed_nets", "{}"),
    ("iterations", "iterations", "{}"),
    ("cost", "score", "{:.0f}"),
    ("runtime (s)", "runtime_seconds", "{:.3f}"),
)


@dataclass
class TableRow:
    """One case row of Table II or III: the baseline column against Mr.TPL's."""

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

    def as_dict(self) -> Dict[str, object]:
        """Return the row as a JSON-ready dictionary: both full columns plus
        the improvements and the speedup."""
        return {
            "case": self.case,
            "baseline": self.baseline.as_dict(),
            "ours": self.ours.as_dict(),
            "conflict_improvement": self.conflict_improvement,
            "stitch_improvement": self.stitch_improvement,
            "cost_improvement": self.cost_improvement,
            "speedup": self.speedup,
        }


def run_flow(
    flow: str,
    build: Callable[[], Design],
    guides: Optional[GuideSet] = None,
    max_iterations: Optional[int] = None,
) -> EvaluationResult:
    """Route a freshly built design with one flow and score it.

    *flow* is ``"mr-tpl"``, ``"dac2012"`` or ``"decompose"``: the
    TPL-unaware detailed router (the stand-in for Dr.CU 2.0), then the
    OpenMPL-like decomposer on the unchanged layout.  ``build()`` makes
    the design, routed on its own grid, so no flow sees another's routing
    state.  Every router follows *guides*, or runs unguided without them.
    :func:`evaluate_solution` scores the result; the ``decompose`` flow's
    runtime is routing plus decomposition.
    """
    # Load the native kernels (building them on a fresh checkout) before
    # the timed run, so no column's runtime counts the compiler.
    get_native_kernel()
    get_check_kernel()
    design = build()
    grid = RoutingGrid(design)
    if flow == "decompose":
        plain = DetailedRouter(
            design, grid=grid, guides=guides, max_iterations=max_iterations
        ).run()
        decomposition = LayoutDecomposer(design, grid).decompose(plain)
        result = evaluate_solution(design, grid, decomposition.solution, guides)
        return replace(
            result,
            runtime_seconds=plain.runtime_seconds + decomposition.runtime_seconds,
        )
    routers = {"mr-tpl": MrTPLRouter, "dac2012": Dac2012Router}
    if flow not in routers:
        raise ValueError(f"unknown flow {flow!r}")
    solution = routers[flow](
        design, grid=grid, guides=guides, use_global_router=False,
        max_iterations=max_iterations,
    ).run()
    return evaluate_solution(design, grid, solution, guides)


def compare_case(
    case: SuiteCase,
    baseline: str = "dac2012",
    max_iterations: Optional[int] = None,
) -> TableRow:
    """Route *case* with the *baseline* flow and with Mr.TPL, and score both.

    *baseline* is ``"dac2012"`` (Table II) or ``"decompose"`` (Table III).
    The global-routing guides are built once, on a build of their own, and
    shared: a :class:`GuideSet` never changes once built, and every build
    of a case is the same design.
    """
    if baseline not in {flow for flow, _ in TABLE_BASELINES.values()}:
        raise ValueError(f"unknown baseline {baseline!r}")
    guides = GlobalRouter(case.build()).route()
    return TableRow(
        case=case.name,
        baseline=run_flow(baseline, case.build, guides, max_iterations),
        ours=run_flow("mr-tpl", case.build, guides, max_iterations),
    )


def run_table(
    table: str,
    scale: float = 1.0,
    cases: Optional[Sequence[int]] = None,
    max_iterations: Optional[int] = None,
    on_row: Optional[Callable[[TableRow], None]] = None,
) -> List[TableRow]:
    """Run Table ``"II"`` or ``"III"`` over its suite at *scale*.

    *on_row* sees each row as soon as its case finishes.
    """
    baseline, suite = TABLE_BASELINES[table]
    rows = []
    for case in suite(scale, cases=list(cases) if cases is not None else None):
        _LOG.info("Table %s case %s", table, case.name)
        row = compare_case(case, baseline, max_iterations)
        if on_row is not None:
            on_row(row)
        rows.append(row)
    return rows


def summarize(rows: Sequence[TableRow]) -> Dict[str, float]:
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


def format_rows(rows: Sequence[TableRow]) -> str:
    """Render *rows* as a text table; each metric cell reads ``baseline/Mr.TPL``."""
    headers = ["case", *(header for header, _, _ in _ROW_COLUMNS), "speedup"]
    body = [
        [
            row.case,
            *(
                f"{spec.format(getattr(row.baseline, field_name))}/"
                f"{spec.format(getattr(row.ours, field_name))}"
                for _, field_name, spec in _ROW_COLUMNS
            ),
            f"{row.speedup:.2f}x",
        ]
        for row in rows
    ]
    return format_table(headers, body)


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

@dataclass
class FigureResult:
    """Outcome of one qualitative figure scenario."""

    scenario: str
    metrics_by_router: Dict[str, EvaluationResult]

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
    return [
        FigureResult(
            scenario="fig1_dense_cluster",
            metrics_by_router={
                "decomposition": run_flow("decompose", fig1_dense_cluster,
                                          max_iterations=max_iterations),
                "mr-tpl": run_flow("mr-tpl", fig1_dense_cluster,
                                   max_iterations=max_iterations),
            },
        ),
        FigureResult(
            scenario="fig1_multi_pin_net",
            metrics_by_router={
                "dac2012": run_flow("dac2012", fig1_multi_pin_net,
                                    max_iterations=max_iterations),
                "mr-tpl": run_flow("mr-tpl", fig1_multi_pin_net,
                                   max_iterations=max_iterations),
            },
        ),
    ]


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
