#!/usr/bin/env python
"""Nightly chaos sweep: probabilistic fault plans over seeded campaigns.

Where the fault-matrix tests pin one deterministic fault per run, the
chaos sweep arms a *composite probabilistic* plan -- crashes past a
replay threshold, dropped pipes, transient compute errors and slow
replies, each gated by a seeded ``p=`` draw -- and routes the
pool-engaging sparse case with every router across a range of seeds.
Every campaign must complete and stay **bit-identical** to its fault-free
serial reference (the degradation ladder's serial floor guarantees
completion no matter what fires); the per-run recovery counters are
accumulated into a JSON report CI uploads as the recovery-stats artifact.

Usage::

    PYTHONPATH=src python scripts/chaos_sweep.py --seeds 8 --out BENCH_chaos_sweep.json
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faults  # noqa: E402
from repro.baselines.dac2012 import Dac2012Router  # noqa: E402
from repro.bench.micro import solution_fingerprint  # noqa: E402
from repro.bench.suites import suite_case  # noqa: E402
from repro.dr.router import DetailedRouter  # noqa: E402
from repro.grid import RoutingGrid  # noqa: E402
from repro.tpl.mr_tpl import MrTPLRouter  # noqa: E402

ROUTERS = {
    "maze": DetailedRouter,
    "color-state": MrTPLRouter,
    "dac2012": Dac2012Router,
}

#: The composite chaos plan: every clause is probabilistic and unlimited
#: (or capped), so which faults actually fire -- and where -- varies with
#: the seed while staying fully reproducible for a given seed.
CHAOS_PLAN = (
    "worker.crash:p=0.25,times=*,op=100;"
    "pipe.drop:p=0.1,times=*;"
    "compute.error:p=0.2,times=3;"
    "reply.delay:p=0.5,times=*,seconds=0.005"
)

RECOVERY_KEYS = (
    "worker_errors", "retries", "deadline_timeouts", "worker_replacements",
    "demotions", "worker_kills", "heartbeats",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of fault seeds to sweep (0..N-1)")
    parser.add_argument("--scale", type=float, default=0.4,
                        help="sparse-suite scale factor (0.4 engages the pool)")
    parser.add_argument("--plan", default=CHAOS_PLAN,
                        help="override the composite REPRO_FAULT_PLAN text")
    parser.add_argument("--out", default="BENCH_chaos_sweep.json",
                        help="recovery-stats JSON output path")
    args = parser.parse_args(argv)

    def build():
        return suite_case("sparse", 1, args.scale).build()

    def make_router(key, design, **kwargs):
        if key != "maze":
            kwargs.setdefault("use_global_router", False)
        return ROUTERS[key](design, grid=RoutingGrid(design), **kwargs)

    references = {}
    runs = []
    totals = {key: 0 for key in RECOVERY_KEYS}
    failures = 0
    for key in sorted(ROUTERS):
        faults.clear_plan()  # the serial oracle must never see a fault
        references[key] = solution_fingerprint(make_router(key, build()).run())
        for seed in range(args.seeds):
            faults.set_plan(args.plan, seed=seed)
            try:
                router = make_router(
                    key, build(),
                    parallelism=2, batch_backend="pool", min_fork_batch=2,
                )
                start = time.perf_counter()
                fingerprint = solution_fingerprint(router.run())
                seconds = time.perf_counter() - start
            finally:
                faults.clear_plan()
            stats = router.batch_executor.stats.as_dict()
            identical = fingerprint == references[key]
            failures += 0 if identical else 1
            for counter in RECOVERY_KEYS:
                totals[counter] += stats[counter]
            runs.append({
                "router": key,
                "seed": seed,
                "seconds": round(seconds, 4),
                "identical_solutions": identical,
                "final_backend": router.batch_executor.active_backend,
                "recovery": {counter: stats[counter] for counter in RECOVERY_KEYS},
            })
            fired = ", ".join(
                f"{counter}={stats[counter]}"
                for counter in RECOVERY_KEYS
                if stats[counter] and counter != "heartbeats"
            )
            print(
                f"{key:<12} seed={seed:<3} {seconds:.3f}s "
                f"identical={identical} backend={router.batch_executor.active_backend} "
                f"[{fired or 'clean run'}]"
            )

    report = {
        "benchmark": "chaos sweep: probabilistic fault plans, parity-checked",
        "plan": args.plan,
        "suite": "sparse",
        "case": 1,
        "scale": args.scale,
        "seeds": args.seeds,
        "runs": runs,
        "recovery_totals": totals,
        "parity_failures": failures,
        "all_identical": failures == 0,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{len(runs)} chaos runs, {failures} parity failures, "
        f"recovery totals {totals} -> {args.out}"
    )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
