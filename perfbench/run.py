#!/usr/bin/env python3
"""End-to-end routing benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload dense-mrtpl --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0    # every workload in turn

``--trace 0`` repeats set-up / route / eval legs of the workload's design
for ``--seconds`` (at least three legs) and reports the end-to-end
metrics as medians, each sample scaled to a reference host speed
(:mod:`hostspeed`); ``--trace 1`` routes the design once untraced and once
under the layer tracer (:mod:`spans`) and reports the per-layer metrics,
plus a hash-seed determinism probe.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable report (environment, per-metric values with
units, and for traced runs the span tree).

The script is a launcher: it compiles the native kernels into the package
when they are missing, then re-runs itself (``--measure``) under a pinned
``PYTHONHASHSEED`` -- routing results depend on set iteration order -- and
waits for that child.  It exits non-zero without a result when the
``repro`` sources or the native search/check tiers are missing, and with
``correct: false`` when a solution digest or the oracle cross-check
disagrees.

``--seed`` is recorded but does not change the routed design: quality
metrics are properties of the design, so every run of a workload routes the
same one (``--design-seed``, default 1910) and run-to-run spread measures
the code, not the input.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Hash seed of every measured process; the determinism probe uses another.
PINNED_HASH_SEED = 0
PROBE_HASH_SEED = 1

#: Fewest timed legs per run, however short ``--seconds`` is.
MIN_LEGS = 3

#: How strongly each time follows the host slow-down the yardstick shows
#: (:meth:`hostspeed.HostSpeed.scaled`).  Set-up and evaluation are
#: interpreted Python like the yardstick and follow it fully.  Routing runs
#: the native search kernel and, on sparse-pool, two worker processes; over
#: slow phases of 1.3-1.9x it slowed by about the square root as much.
SCALE_EXPONENT = {"setup_s": 1.0, "route_s": 0.5, "eval_s": 1.0}

#: Wall-clock limit for one measurement child (and the probe it starts).
CHILD_TIMEOUT_S = 170

#: The metric names, units and bounds live in the repository's
#: ``BENCHMARK.json``; a run emits exactly the section its mode names.
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(section: str) -> dict:
    """Return ``{name: unit}`` of one ``BENCHMARK.json`` metric section."""
    with open(BENCHMARK_JSON) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--design-seed", type=int, default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink or grow the design (smoke tests use <1)")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------

def launch(args) -> int:
    """Build the native kernels if needed, then measure in a pinned child.

    ``--workload all`` measures every workload of ``BENCHMARK.json`` in
    turn, each in its own child, and exits with the worst exit code.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.native import build

    for name in build.ALL_EXTENSION_NAMES:
        target = build.package_target(name)
        if not os.path.exists(target):
            try:
                build.build_extension(target=target, name=name)
            except build.NativeBuildError as exc:
                print(f"perfbench: cannot build native {name}: {exc}", file=sys.stderr)
                return 2
    if args.workload != "all":
        return run_child(child_argv(args, args.workload), PINNED_HASH_SEED).returncode
    with open(BENCHMARK_JSON) as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    codes = []
    for name in names:
        print(f"== {name}", flush=True)
        codes.append(run_child(child_argv(args, name), PINNED_HASH_SEED).returncode)
    return max(codes)


def child_argv(args, workload: str) -> list:
    """Return the measuring child's arguments for one *workload*."""
    argv = [
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    if args.design_seed is not None:
        argv += ["--design-seed", str(args.design_seed)]
    return argv


def run_child(argv, hash_seed: int, capture: bool = False) -> subprocess.CompletedProcess:
    """Run this script with ``--measure`` under *hash_seed* and wait for it."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", *argv],
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )


# ----------------------------------------------------------------------
# Measurement child
# ----------------------------------------------------------------------

def git_rev() -> str:
    """Return the checkout's commit id from ``.git``, or ``unknown``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    from repro import accel

    return {
        "workload": args.workload,
        "seed": args.seed,
        "design_seed": args.design_seed,
        "scale": args.scale,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "cpu_count": os.cpu_count(),
        "search_tier": accel.active_search_tier(),
        "check_tier": accel.active_check_tier(),
        "numpy": accel.numpy_enabled(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def describe(name: str, values) -> str:
    values = sorted(values)
    return (
        f"  {name}: median {statistics.median(values):.4f} "
        f"(min {values[0]:.4f}, max {values[-1]:.4f}, n={len(values)})"
    )


def print_result(correct, attempted, failed, metrics, units) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))


def timed_run(args, workload) -> int:
    from hostspeed import HostSpeed
    from workloads import build_design, quality, run_leg

    design = build_design(workload, args.design_seed, args.scale)
    speed = HostSpeed()
    legs = []
    started = perf_counter()
    while True:
        leg_started = perf_counter()
        leg = run_leg(workload, design, speed=speed)
        # Free the grid with the router: otherwise memory, and with it
        # peak_rss_mb, grows with the leg count, i.e. with machine speed.
        leg.router = None
        legs.append(leg)
        now = perf_counter()
        if len(legs) >= MIN_LEGS and (now - started) + (now - leg_started) > args.seconds:
            break

    setup = speed.scaled("setup_s", SCALE_EXPONENT["setup_s"])
    route = speed.scaled("route_s", SCALE_EXPONENT["route_s"])
    evaluate = speed.scaled("eval_s", SCALE_EXPONENT["eval_s"])
    print(f"{len(legs)} legs in {perf_counter() - started:.1f} s")
    print(describe("setup_s", setup))
    print(describe("route_s", route))
    print(describe("eval_s", evaluate))
    for line in speed.report_lines():
        print(line)

    problems = [problem for leg in legs for problem in leg.problems]
    digests = {leg.digest for leg in legs}
    if len(digests) > 1:
        problems.append(f"legs disagree: {len(digests)} distinct solution digests")
    print(f"digest {legs[0].digest}")

    metrics = {
        "setup_s": statistics.median(setup),
        "route_s": statistics.median(route),
        "eval_s": statistics.median(evaluate),
        "peak_rss_mb": peak_rss_mb(),
        **quality(legs[0]),
    }
    return finish(problems, legs, metrics, metric_units("end_to_end"))


def finish(problems, legs, metrics, units) -> int:
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print_result(
        not problems,
        sum(leg.routable_nets for leg in legs),
        sum(leg.failed_nets for leg in legs),
        metrics,
        units,
    )
    return 1 if problems else 0


def probe_digest(args) -> str:
    """Route the design once under another hash seed; return its digest."""
    argv = ["--probe", *child_argv(args, args.workload)]
    completed = run_child(argv, PROBE_HASH_SEED, capture=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines or not lines[-1].startswith("digest "):
        raise RuntimeError(f"determinism probe failed with code {completed.returncode}")
    return lines[-1].split()[1]


def traced_run(args, workload) -> int:
    from spans import Tracer, install
    from workloads import build_design, quality, run_leg

    untraced = run_leg(workload, build_design(workload, args.design_seed, args.scale), 1)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        design = build_design(workload, args.design_seed, args.scale)
        traced = run_leg(workload, design, 1, tracer=tracer)
    finally:
        uninstall()
    router = traced.router
    hashseed_match = probe_digest(args) == untraced.digest

    problems = untraced.problems + traced.problems
    if traced.digest != untraced.digest:
        problems.append("traced leg routed a different solution than the untraced leg")
    if quality(traced) != quality(untraced):
        problems.append("traced leg's quality differs from the untraced leg's")

    self_s = tracer.self_s
    counts = tracer.counts
    executor = router.batch_executor
    phases = router.phases.as_dict() if executor is not None else {}
    stats = executor.stats.as_dict() if executor is not None else {}
    speculative = stats.get("speculative_accepted", 0) + stats.get("speculative_fallbacks", 0)
    kernel_s = self_s.get("search.kernel", 0.0)
    engine_s = tracer.engine_search_s()
    metrics = {
        "synthetic.generate_s": self_s.get("synthetic.generate", 0.0),
        "gr.route_s": self_s.get("gr.route", 0.0),
        "grid.build_s": self_s.get("grid.build", 0.0),
        "cost.tables_s": self_s.get("cost.tables", 0.0),
        "cost.tables_calls": counts["cost.tables_calls"],
        "search.kernel_s": kernel_s,
        "search.calls": counts["search.calls"],
        "search.expansions": counts["search.expansions"],
        "search.expansions_per_s": counts["search.expansions"] / kernel_s if kernel_s else 0.0,
        "search.kernel_share": kernel_s / engine_s if engine_s else 0.0,
        "tpl.search_s": self_s.get("tpl.search", 0.0),
        "tpl.backtrace_s": self_s.get("tpl.backtrace", 0.0),
        "dr.search_s": self_s.get("dr.search", 0.0),
        "dr.backtrace_s": self_s.get("dr.backtrace", 0.0),
        "dac2012.search_s": self_s.get("dac2012.search", 0.0),
        "decomposer.decompose_s": self_s.get("decomposer.decompose", 0.0),
        "grid.commit_s": self_s.get("grid.commit", 0.0),
        "grid.commit_ops": counts["grid.commit_ops"],
        "grid.ripup_s": self_s.get("grid.ripup", 0.0),
        "grid.ripup_ops": counts["grid.ripup_ops"],
        "check.refresh_s": self_s.get("check.refresh", 0.0),
        "check.refreshes": counts["check.refreshes"],
        "check.nets_revalidated": counts["check.nets_revalidated"],
        "sched.plan_s": phases.get("plan", 0.0),
        "sched.ipc_s": phases.get("ipc", 0.0),
        "sched.commit_s": phases.get("commit", 0.0),
        "sched.parallel_batches": stats.get("parallel_batches", 0),
        "sched.largest_batch": stats.get("largest_batch", 0),
        "sched.fallback_ratio": (
            stats.get("speculative_fallbacks", 0) / speculative if speculative else 0.0
        ),
        "sched.replayed_ops": stats.get("replayed_ops", 0),
        "sched.suffix_bytes": stats.get("suffix_bytes", 0),
        "sched.worker_errors": stats.get("worker_errors", 0),
        "eval.conflict_scan_s": self_s.get("eval.conflict_scan", 0.0),
        "eval.drc_s": self_s.get("eval.drc", 0.0),
        "campaign.iterations": traced.evaluation.iterations,
        "campaign.unattributed_s": traced.route_s - traced.route_attributed_s,
        "campaign.attributed_frac": traced.route_attributed_s / traced.route_s,
        "trace.overhead": traced.route_s / untraced.route_s,
        "determinism.hashseed_match": int(hashseed_match),
    }

    print(f"untraced route_s {untraced.route_s:.4f} s, traced route_s {traced.route_s:.4f} s")
    print(f"digest {traced.digest}")
    print("span tree (parent > span: inclusive, self, calls):")
    for line in tracer.tree_lines():
        print("  " + line)
    if executor is not None:
        print(
            "note: pool workers inherit the tracer but their spans are not collected; "
            "worker-side search appears as sched.ipc_s"
        )
    if not hashseed_match:
        print(
            f"note: PYTHONHASHSEED={PROBE_HASH_SEED} routes a different solution "
            f"than PYTHONHASHSEED={PINNED_HASH_SEED} (order-dependent routing)"
        )
    return finish(problems, [untraced], metrics, metric_units("per_layer"))


def measure(args) -> int:
    sys.path.insert(0, HERE)
    from workloads import DEFAULT_DESIGN_SEED, WORKLOADS, build_design, run_leg

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.design_seed is None:
        args.design_seed = DEFAULT_DESIGN_SEED
    if args.probe:
        leg = run_leg(workload, build_design(workload, args.design_seed, args.scale), 1)
        print(f"digest {leg.digest}")
        return 0

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    if env["search_tier"] != "native" or env["check_tier"] != "native":
        print("perfbench: the native search and check tiers must be active; "
              "refusing to report interpreted-tier timings", file=sys.stderr)
        return 3
    gc.collect()
    return traced_run(args, workload) if args.trace else timed_run(args, workload)


def main() -> int:
    args = parse_args(sys.argv[1:])
    return measure(args) if args.measure else launch(args)


if __name__ == "__main__":
    sys.exit(main())
