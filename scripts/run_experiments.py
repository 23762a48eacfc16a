#!/usr/bin/env python3
"""Run the Table II / Table III experiments and print both tables.

Usage::

    python scripts/run_experiments.py [scale] [max_cases]

Table II races Mr.TPL against the DAC-2012 router on the ISPD-2018-like
suite, Table III against route-then-decompose on the ISPD-2019-like suite,
each on cases 1..max_cases at *scale* with 3 rip-up rounds.  One JSON line
per row is printed as soon as its case finishes, so a partial run is still
usable; then both tables (each metric cell reads ``baseline/Mr.TPL``) and
their averaged improvements.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.eval.experiments import TABLE_BASELINES, format_rows, run_table, summarize
from repro.eval.report import format_percent

#: Rip-up rounds per router, the same for every column of both tables.
MAX_ITERATIONS = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("scale", nargs="?", type=float, default=0.7)
    parser.add_argument("max_cases", nargs="?", type=int, default=10)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> None:
    args = parse_args(argv)
    cases = list(range(1, args.max_cases + 1))
    tables = {}
    for table in TABLE_BASELINES:
        def emit(row, table=table):
            record = {"table": table, "scale": args.scale, **row.as_dict()}
            print(json.dumps(record), flush=True)

        tables[table] = run_table(
            table, args.scale, cases, max_iterations=MAX_ITERATIONS, on_row=emit
        )
    for table, rows in tables.items():
        baseline, _ = TABLE_BASELINES[table]
        print(f"\nTable {table} (baseline {baseline} / Mr.TPL, scale {args.scale})")
        print(format_rows(rows))
    print()
    for table, rows in tables.items():
        summary = summarize(rows)
        print(
            f"Table {table}: avg conflict reduction "
            f"{format_percent(summary['avg_conflict_improvement'])}, "
            f"avg stitch reduction {format_percent(summary['avg_stitch_improvement'])}, "
            f"avg cost reduction {format_percent(summary['avg_cost_improvement'])}, "
            f"avg speedup {summary['avg_speedup']:.2f}x (max {summary['max_speedup']:.2f}x)"
        )


if __name__ == "__main__":
    main()
