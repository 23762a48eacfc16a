#!/usr/bin/env python3
"""Run the Table II / Table III experiments and dump rows as they finish.

Usage::

    python scripts/run_experiments.py [scale] [max_cases] [parallelism]
        [--backend serial|pool] [--min-fork-batch N]

A ``parallelism`` above 1 routes through the :mod:`repro.sched` batched
rip-up loop on the worker pool (each routing pass forks its workers, which
catch up between batches from the route logs the parent committed; results
stay bit-identical to the sequential loop).  ``--backend serial`` keeps the
batched loop but routes every batch in-process.  ``--min-fork-batch`` is
the smallest batch worth starting pool workers for (default 3).

Rows are appended to ``experiment_results.jsonl`` in the repository root so a
partially completed run is still usable for EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.suites import ispd18_suite, ispd19_suite
from repro.eval.experiments import run_table2_case, run_table3_case

OUT = Path(__file__).resolve().parent.parent / "experiment_results.jsonl"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", type=float, default=0.7)
    parser.add_argument("max_cases", nargs="?", type=int, default=10)
    parser.add_argument("parallelism", nargs="?", type=int, default=1)
    parser.add_argument(
        "--backend",
        default=None,
        choices=("serial", "pool"),
        help="batched-executor backend (default: pool when parallelism > 1)",
    )
    parser.add_argument(
        "--min-fork-batch",
        type=int,
        default=None,
        help="smallest batch worth starting pool workers for (default: 3)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = args.scale
    max_cases = args.max_cases
    parallelism = args.parallelism
    backend = args.backend
    if backend is None:
        backend = "pool" if parallelism > 1 else "serial"
    knobs = {
        "parallelism": parallelism,
        "batch_backend": backend,
        "min_fork_batch": args.min_fork_batch,
    }
    with OUT.open("a") as handle:
        for case in ispd18_suite(scale, cases=list(range(1, max_cases + 1))):
            row = run_table2_case(case, max_iterations=3, **knobs)
            record = {"table": "II", "scale": scale, **row.as_dict()}
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            print("T2", record, flush=True)
        for case in ispd19_suite(scale, cases=list(range(1, max_cases + 1))):
            row = run_table3_case(case, max_iterations=3, **knobs)
            record = {"table": "III", "scale": scale, **row.as_dict()}
            record["decomposition_runtime"] = row.decomposition_runtime
            record["ours_runtime"] = row.ours_runtime
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            print("T3", record, flush=True)


if __name__ == "__main__":
    main()
