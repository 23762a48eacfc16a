#!/usr/bin/env python3
"""Reduced-scale smoke test of the benchmark.

Run from the repository root::

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced on
small designs (``--scale 0.4``) and checks, for each run, that:

* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* every metric ``BENCHMARK.json`` names for that mode is emitted, with
  its unit, and nothing else;
* ``correct`` is true -- the legs' solution digests agree, the traced leg
  reproduces the untraced digest and quality, and the incremental
  conflict count matches the full-scan oracle -- and no net failed.

Exits non-zero after printing every failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.4"


def check_run(workload: str, trace: int, expected: dict) -> list:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{label}: exit code {completed.returncode}\n{completed.stderr}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')}\n{completed.stderr}")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: attempted {result.get('attempted')}, failed {result.get('failed')}")
    emitted = {name: entry.get("unit") for name, entry in result.get("metrics", {}).items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(name for name in expected if name in emitted and emitted[name] != expected[name])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    units = {
        0: {metric["name"]: metric["unit"] for metric in bench["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in bench["per_layer"]},
    }
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(workload["name"], trace, units[trace])
            print(f"{workload['name']} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
