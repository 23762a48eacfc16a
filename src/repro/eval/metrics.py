"""Routing-quality metrics shared by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.design import Design
from repro.dr.drc import DRCChecker
from repro.eval.ispd_score import IspdScoreWeights, ispd_score
from repro.gr.guide import GuideSet
from repro.grid import RoutingGrid, RoutingSolution
from repro.tpl.conflict import ConflictChecker


@dataclass
class EvaluationResult:
    """All quality numbers of one routed (and possibly colored) solution."""

    design_name: str
    router_name: str
    conflicts: int
    stitches: int
    wirelength: int
    vias: int
    shorts: int
    spacing_violations: int
    open_nets: int
    out_of_guide: int
    wrong_way: int
    uncolored_vertices: int
    score: float
    runtime_seconds: float
    iterations: int
    routed_nets: int
    failed_nets: int

    def as_dict(self) -> Dict[str, float]:
        """Return the metrics as a flat dictionary (for tables / JSON)."""
        return {
            "design": self.design_name,
            "router": self.router_name,
            "conflicts": self.conflicts,
            "stitches": self.stitches,
            "wirelength": self.wirelength,
            "vias": self.vias,
            "shorts": self.shorts,
            "spacing_violations": self.spacing_violations,
            "open_nets": self.open_nets,
            "out_of_guide": self.out_of_guide,
            "wrong_way": self.wrong_way,
            "uncolored_vertices": self.uncolored_vertices,
            "score": self.score,
            "runtime_seconds": self.runtime_seconds,
            "iterations": self.iterations,
            "routed_nets": self.routed_nets,
            "failed_nets": self.failed_nets,
        }


def evaluate_solution(
    design: Design,
    grid: RoutingGrid,
    solution: RoutingSolution,
    guides: Optional[GuideSet] = None,
    weights: Optional[IspdScoreWeights] = None,
) -> EvaluationResult:
    """Evaluate *solution* on *design*: conflicts, stitches, DRC, ISPD score.

    The conflict count follows the paper's definition (same-mask pairs of
    different nets within ``Dcolor`` plus hard spacing violations); the
    stitch count is read off the final vertex colors
    (:attr:`~repro.grid.NetRoute.stitches`).  Read-only: the solution is
    left as it was given.
    """
    conflict_checker = ConflictChecker(design, grid)
    conflict_report = conflict_checker.check(solution)
    stitches = solution.total_stitches()

    drc = DRCChecker(design, grid, guides)
    drc_summary = drc.summary(solution)

    wirelength = solution.total_wirelength()
    vias = solution.total_vias()
    score = ispd_score(
        wirelength=wirelength,
        vias=vias,
        out_of_guide=drc_summary["out_of_guide"],
        wrong_way=drc_summary["wrong_way"],
        shorts=drc_summary["shorts"],
        spacing_violations=drc_summary["spacing"],
        open_nets=drc_summary["opens"],
        pitch=grid.pitch,
        weights=weights,
    )
    return EvaluationResult(
        design_name=design.name,
        router_name=solution.router_name,
        conflicts=conflict_report.conflict_count,
        stitches=stitches,
        wirelength=wirelength,
        vias=vias,
        shorts=drc_summary["shorts"],
        spacing_violations=drc_summary["spacing"],
        open_nets=drc_summary["opens"],
        out_of_guide=drc_summary["out_of_guide"],
        wrong_way=drc_summary["wrong_way"],
        uncolored_vertices=conflict_report.uncolored_vertices,
        score=score,
        runtime_seconds=solution.runtime_seconds,
        iterations=solution.iterations,
        routed_nets=len(solution.routed_nets()),
        failed_nets=len(solution.failed_nets()),
    )
