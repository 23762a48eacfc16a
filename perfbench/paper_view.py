#!/usr/bin/env python3
"""Print the paper view of the shared dense design.

Run from the repository root::

    python3 perfbench/paper_view.py

Runs the three dense workloads through ``run.py`` (untraced, three legs
each, so with the pinned hash seed and every correctness check) and compares Mr.TPL against
the DAC-2012 baseline (the paper's Table II columns) and against
route-then-decompose (Table III): speedup in ``route_s``, conflict
reduction and stitch reduction.  This is a report, not a benchmark metric.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ROWS = (("mr-tpl", "dense-mrtpl"), ("dac2012", "dense-dac2012"), ("route+decompose", "dense-decompose"))


def measure(workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def reduction(baseline: float, ours: float) -> str:
    return f"{100.0 * (baseline - ours) / baseline:.1f}%" if baseline else "n/a"


def main() -> int:
    results = {label: measure(workload) for label, workload in ROWS}

    print(f"{'router':<16} {'route_s':>8} {'conflicts':>9} {'stitches':>8} {'ispd_score':>10}")
    for label, _ in ROWS:
        r = results[label]
        print(f"{label:<16} {r['route_s']:>8.3f} {r['conflicts']:>9} "
              f"{r['stitches']:>8} {r['ispd_score']:>10.0f}")
    ours = results["mr-tpl"]
    for title, label in (("vs DAC-2012 (Table II)", "dac2012"),
                         ("vs route+decompose (Table III)", "route+decompose")):
        base = results[label]
        print(f"Mr.TPL {title}: speedup {base['route_s'] / ours['route_s']:.2f}x, "
              f"conflict reduction {reduction(base['conflicts'], ours['conflicts'])}, "
              f"stitch reduction {reduction(base['stitches'], ours['stitches'])}")
    print("paper: 81% fewer conflicts, 77% fewer stitches, up to 5.4x faster than DAC-2012")
    return 0


if __name__ == "__main__":
    sys.exit(main())
