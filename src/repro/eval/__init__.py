"""Evaluation: metrics, the ISPD-style cost score, and experiment drivers.

The evaluation code is shared by every router and baseline so the
comparisons of Tables II and III are computed identically for all of them.
:mod:`repro.eval.experiments` holds the drivers that regenerate each
table and figure of the paper; ``scripts/run_experiments.py`` prints both
tables from them.
"""

from repro.eval.metrics import EvaluationResult, evaluate_solution
from repro.eval.ispd_score import IspdScoreWeights, ispd_score
from repro.eval.report import format_table
from repro.eval.experiments import (
    TableRow,
    compare_case,
    format_rows,
    run_fig1_examples,
    run_fig3_walkthrough,
    run_table,
    summarize,
)

__all__ = [
    "EvaluationResult",
    "evaluate_solution",
    "IspdScoreWeights",
    "ispd_score",
    "format_table",
    "TableRow",
    "compare_case",
    "format_rows",
    "run_fig1_examples",
    "run_fig3_walkthrough",
    "run_table",
    "summarize",
]
