"""Hand-crafted micro layouts mirroring the paper's figures, plus the
micro-benchmark modes.

Micro layouts:

* :func:`fig1_dense_cluster` -- four closely spaced nets whose patterns
  cannot all receive different masks once routed without care: the scenario
  of Fig. 1(a)/(b) where layout decomposition hits an unsolvable conflict.
* :func:`fig1_multi_pin_net` -- one 4-pin net surrounded by pre-colored
  metal: the scenario of Fig. 1(c)/(d) where a 2-pin TPL router sprays
  stitches across the net while a multi-pin-aware router does not.
* :func:`fig3_walkthrough_design` -- the Fig. 3 walk-through: a 4-pin net
  with two fixed obstacles on mask 2 and mask 3 forcing the color state of
  the routed path to narrow from ``111`` to ``101`` to ``100``.

Micro-benchmark modes (``python -m repro.bench.micro`` needs exactly one):

:func:`run_native_kernel_benchmarks` (``--native``) benchmarks the
compiled relaxation kernel (:mod:`repro.native`) against the buffered
flat-label loop with the kernel forced off, asserting bit-identical
solutions and recording the tier actually active per leg (baseline:
``BENCH_native_kernel.json``).  Any benchmark mode runs under cProfile
with ``--profile N`` (top-N cumulative functions printed, raw stats
dumped next to the JSON output).

:func:`run_incremental_check_benchmarks` (``--incremental``) replays the
rip-up loop's check workload and times the :mod:`repro.check` delta tallies
against the full-scan ``DRCChecker``/``ConflictChecker`` oracle, asserting
identical reports (baseline: ``BENCH_incremental_check.json``).

:func:`run_batch_sched_benchmarks` (``--batched``) routes every case both
through the plain sequential loop and through the :mod:`repro.sched`
disjoint-batch executor (``--parallelism`` / ``--backend``, which accepts a
comma-separated list of ``serial`` / ``thread`` / ``pool``;
``--min-fork-batch`` / ``--margin-cells`` expose the tuning knobs),
asserting the batched solutions are bit-identical and recording per
backend the wall-clock ratio against the sequential loop plus the
executor's full stats (speculation, fork and journal-replay counters) and
the host ``cpu_count`` (baseline: ``BENCH_batch_sched.json``).  Beyond
the dense ispd-like sweep the batched run appends the production-shaped
:data:`SPARSE_CASES`, whose small net-span/die ratios let batches
actually grow toward the parallelism cap; ``--suite sparse --backend
thread,pool --parallelism 2`` measures thread and pool scaling against
the sequential loop with the sparse cases as the main sweep.

:func:`run_checkpoint_benchmarks` (``--checkpoint``) checkpoints a full
Mr.TPL campaign both as the complete journal op log and as the
checkpoint-v2 snapshot-folded document, restores each through
``checkpoint_from_dict`` asserting the rebuilt grids state-identical, and
records document sizes, op counts and restore wall-clocks (baseline:
``BENCH_checkpoint.json``).

``python -m repro.bench.micro`` writes the selected mode's result set as a
``BENCH_*.json`` perf baseline so CI and future PRs can track regressions.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.accel import (
    active_check_tier,
    active_search_tier,
    check_native_available,
    have_numpy,
    native_available,
    numpy_enabled,
    set_check_scan_enabled,
    set_native_enabled,
)
from repro.profiling import PHASE_NAMES, global_phase_delta, global_phase_snapshot
from repro.design import Design, Net, Obstacle, Pin
from repro.geometry import Rect
from repro.tech import DesignRules, make_default_tech
from repro.utils.env import env_float

#: Default suite scale of the micro-benchmarks; overridable through the
#: ``REPRO_BENCH_SCALE`` environment knob shared with ``benchmarks/``.
DEFAULT_BENCH_SCALE = 0.7

#: Extra denser cases appended to the native-kernel benchmark beyond the
#: ispd18 sweep: one ispd19-like case (tighter color spacing regime, more nets).
DENSE_CASES: Tuple[Tuple[str, int], ...] = (("ispd19", 4),)

#: Production-shaped sparse cases appended to the batched benchmark: small
#: net-span/die ratios, so disjoint batches actually grow toward the
#: executor's ``parallelism`` cap (the ispd18/19-like cases are too dense
#: for that -- their mean batch size saturates around 1.5-3).
SPARSE_CASES: Tuple[Tuple[str, int], ...] = (("sparse", 1), ("sparse", 2), ("sparse", 3))


def default_bench_scale() -> float:
    """Return the suite scale factor (``REPRO_BENCH_SCALE`` env override)."""
    return env_float("REPRO_BENCH_SCALE", DEFAULT_BENCH_SCALE)


def _port(name: str, layer: int, x: int, y: int, half: int = 1) -> Pin:
    """Return a square top-level port pin centred on ``(x, y)``."""
    pin = Pin(name=name)
    pin.add_shape(layer, Rect(x - half, y - half, x + half, y + half))
    return pin


def _micro_design(name: str, size: int = 64, color_spacing: int = 8, num_layers: int = 3) -> Design:
    rules = DesignRules(color_spacing=color_spacing, min_spacing=1, wire_width=1)
    tech = make_default_tech(
        num_layers=num_layers, pitch=4, color_spacing=color_spacing, rules=rules
    )
    return Design(name=name, tech=tech, die_area=Rect(0, 0, size, size))


def fig1_dense_cluster() -> Design:
    """Return the Fig. 1(a) scenario: four mutually close patterns.

    Four 2-pin nets are forced through a narrow corridor so their wires end
    up pairwise closer than ``Dcolor``.  A decomposer that may not move the
    wires cannot 3-color four mutually conflicting patterns; a TPL-aware
    router spreads them (or pays a stitch) instead.
    """
    design = _micro_design("fig1_dense_cluster", size=64, color_spacing=8)
    # A corridor bounded by blockages on the first two layers squeezes the
    # four nets together in the middle of the die.
    design.add_obstacle(Obstacle(layer=0, rect=Rect(0, 24, 24, 40), name="wall_left"))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(40, 24, 64, 40), name="wall_right"))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(0, 24, 24, 40), name="wall_left_m2"))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(40, 24, 64, 40), name="wall_right_m2"))
    for index in range(4):
        x = 26 + index * 4
        net = Net(name=f"pair_{index}")
        net.add_pin(_port(f"pair_{index}_s", 0, x, 8))
        net.add_pin(_port(f"pair_{index}_t", 0, x, 56))
        design.add_net(net)
    return design


def fig1_multi_pin_net() -> Design:
    """Return the Fig. 1(c) scenario: one 4-pin net amid pre-colored metal.

    The pre-colored obstacles force parts of the net onto specific masks; a
    2-pin router commits each branch's color independently and pays stitches
    at the junctions, while the multi-pin color-state search agrees on masks
    across the whole tree.
    """
    design = _micro_design("fig1_multi_pin_net", size=64, color_spacing=8)
    design.add_obstacle(Obstacle(layer=0, rect=Rect(20, 18, 32, 22), name="fixed_green", color=1))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(36, 40, 48, 44), name="fixed_blue", color=2))
    net = Net(name="multi4")
    net.add_pin(_port("p1", 0, 8, 8))
    net.add_pin(_port("p2", 0, 56, 8))
    net.add_pin(_port("p3", 0, 8, 56))
    net.add_pin(_port("p4", 0, 56, 56))
    design.add_net(net)
    # Two short neighbour nets add color pressure around the junctions.
    neighbour_a = Net(name="nbr_a")
    neighbour_a.add_pin(_port("na_s", 0, 24, 28))
    neighbour_a.add_pin(_port("na_t", 0, 40, 28))
    design.add_net(neighbour_a)
    neighbour_b = Net(name="nbr_b")
    neighbour_b.add_pin(_port("nb_s", 0, 24, 36))
    neighbour_b.add_pin(_port("nb_t", 0, 40, 36))
    design.add_net(neighbour_b)
    return design


def fig3_walkthrough_design() -> Design:
    """Return the Fig. 3 walk-through case.

    A single 4-pin net must route past two fixed shapes assigned to mask 2
    (green) and mask 3 (blue).  Passing the green shape removes green from
    the path's color state (``111`` -> ``101``); passing the blue shape then
    removes blue (``101`` -> ``100``), so the backtrace must finally place the
    affected segments on mask 1 (red), exactly as in the paper's example.
    """
    design = _micro_design("fig3_walkthrough", size=48, color_spacing=8, num_layers=2)
    design.add_obstacle(Obstacle(layer=0, rect=Rect(14, 20, 22, 24), name="mask2_shape", color=1))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(30, 20, 38, 24), name="mask3_shape", color=2))
    net = Net(name="fig3_net")
    net.add_pin(_port("pin1", 0, 4, 4))
    net.add_pin(_port("pin2", 0, 4, 44))
    net.add_pin(_port("pin3", 0, 24, 12))
    net.add_pin(_port("pin4", 0, 44, 28))
    design.add_net(net)
    return design


def micro_cases() -> List[Tuple[str, Design]]:
    """Return every micro case as ``(name, design)`` pairs."""
    return [
        ("fig1_dense_cluster", fig1_dense_cluster()),
        ("fig1_multi_pin_net", fig1_multi_pin_net()),
        ("fig3_walkthrough", fig3_walkthrough_design()),
    ]


# ----------------------------------------------------------------------
# Solution digests shared by every mode, the tests and the golden digests
# ----------------------------------------------------------------------

def solution_fingerprint(solution) -> Dict[str, tuple]:
    """Return a comparable, order-independent digest of a routing solution."""
    return {
        name: (
            tuple(sorted(route.vertices)),
            tuple(sorted(route.vertex_colors.items())),
            tuple(sorted(route.edges)),
            tuple(sorted((s.a, s.b) for s in route.stitches)),
            route.routed,
        )
        for name, route in solution.routes.items()
    }


def solution_metrics(solution) -> Dict[str, float]:
    """Return the metric dict the benchmark records per routed solution."""
    return {
        "wirelength": solution.total_wirelength(),
        "vias": solution.total_vias(),
        "stitches": solution.total_stitches(),
        "failed_nets": len(solution.failed_nets()),
        "iterations": solution.iterations,
    }


# ----------------------------------------------------------------------
# Native-kernel micro-benchmark (compiled relaxation loop vs buffered)
# ----------------------------------------------------------------------

def run_native_kernel_benchmarks(
    suite: str = "ispd18",
    cases: Tuple[int, ...] = (1, 2, 3),
    scale: Optional[float] = None,
    routers: Tuple[str, ...] = ("maze", "color-state", "dac2012"),
    repeat: int = 1,
    dense_cases: Tuple[Tuple[str, int], ...] = DENSE_CASES,
) -> Dict[str, object]:
    """Benchmark the compiled relaxation kernel against the buffered tier.

    For every suite case and router the same design is routed *repeat*
    times with the native tier enabled and *repeat* times with it forced
    off (:func:`repro.accel.set_native_enabled`), i.e. on the interpreted
    flat-label loop.  Each row records the tier that was
    actually active per leg (:func:`repro.accel.active_search_tier`) -- on
    a host without a compiler both legs legitimately report a buffered
    tier and the speedup hovers around 1.0 -- and the run asserts the two
    legs produce bit-identical solutions.  Returns the result document
    that :func:`main` serialises to ``BENCH_native_kernel.json``.
    """
    from repro.baselines.dac2012 import Dac2012Router
    from repro.bench.suites import suite_case
    from repro.dr.router import DetailedRouter
    from repro.tpl.mr_tpl import MrTPLRouter

    if scale is None:
        scale = default_bench_scale()
    repeat = max(1, repeat)
    router_classes = {
        "maze": DetailedRouter,
        "color-state": MrTPLRouter,
        "dac2012": Dac2012Router,
    }
    case_list = [(suite, number) for number in cases]
    case_list.extend(dense_cases)
    results: List[Dict[str, object]] = []
    for case_suite, number in case_list:
        for router_key in routers:
            router_class = router_classes[router_key]
            timings: Dict[str, float] = {}
            tiers: Dict[str, str] = {}
            outcome: Dict[str, object] = {}
            identical_repeats = True
            for leg, native in (("native", True), ("buffered", False)):
                previous = set_native_enabled(native)
                try:
                    tiers[leg] = active_search_tier()
                    samples: List[float] = []
                    digests: List[object] = []
                    for _round in range(repeat):
                        design = suite_case(case_suite, number, scale).build()
                        router = router_class(design)
                        start = time.perf_counter()
                        solution = router.run()
                        samples.append(time.perf_counter() - start)
                        digests.append(
                            (
                                solution_fingerprint(solution),
                                solution_metrics(solution),
                            )
                        )
                finally:
                    set_native_enabled(previous)
                timings[leg] = median(samples)
                outcome[leg] = digests[0]
                identical_repeats = identical_repeats and all(
                    digest == digests[0] for digest in digests
                )
            native_digest, native_metrics = outcome["native"]
            buffered_digest, buffered_metrics = outcome["buffered"]
            results.append(
                {
                    "suite": case_suite,
                    "case": number,
                    "router": router_key,
                    "native_tier": tiers["native"],
                    "buffered_tier": tiers["buffered"],
                    "buffered_seconds": round(timings["buffered"], 4),
                    "native_seconds": round(timings["native"], 4),
                    "speedup": round(
                        timings["buffered"] / max(timings["native"], 1e-9), 3
                    ),
                    "identical_solutions": identical_repeats
                    and native_digest == buffered_digest
                    and native_metrics == buffered_metrics,
                    "metrics": native_metrics,
                }
            )
    speedups = [entry["speedup"] for entry in results]
    geomean = 1.0
    for value in speedups:
        geomean *= max(value, 1e-9)
    geomean **= 1.0 / max(len(speedups), 1)
    return {
        "benchmark": "native relaxation kernel vs buffered flat-label loop",
        "suite": suite,
        "scale": scale,
        "cases": list(cases),
        "dense_cases": [list(entry) for entry in dense_cases],
        "repeat": repeat,
        "numpy_available": have_numpy(),
        "numpy_enabled": numpy_enabled(),
        "native_available": native_available(),
        "results": results,
        "geomean_speedup": round(geomean, 3),
        "all_identical": all(entry["identical_solutions"] for entry in results),
    }


# ----------------------------------------------------------------------
# Batched-routing micro-benchmark (disjoint-batch scheduler vs sequential)
# ----------------------------------------------------------------------

def run_batch_sched_benchmarks(
    suite: str = "ispd18",
    cases: Tuple[int, ...] = (1, 2, 3),
    scale: Optional[float] = None,
    routers: Tuple[str, ...] = ("maze", "color-state", "dac2012"),
    repeat: int = 1,
    parallelism: int = 4,
    backends: Tuple[str, ...] = ("thread",),
    policy: str = "prefix",
    min_fork_batch: Optional[int] = None,
    margin_cells: Optional[int] = None,
    dense_cases: Tuple[Tuple[str, int], ...] = DENSE_CASES,
    sparse_cases: Tuple[Tuple[str, int], ...] = SPARSE_CASES,
) -> Dict[str, object]:
    """Benchmark the batched rip-up loop against the sequential loop.

    For every suite case and router the same design is routed *repeat*
    times sequentially and *repeat* times per entry of *backends* through
    the :mod:`repro.sched` disjoint-batch executor (default: the
    speculative thread backend at the order-preserving ``prefix`` policy;
    ``pool`` exercises the persistent journal-replicated workers).  The run
    asserts every batched solution is identical to the sequential one (the
    determinism guarantee of the prefix policy) and records one result row
    per backend: median wall-clocks plus the executor's full
    ``ExecutorStats`` counters (speculation accept/fallback, worker errors,
    pool forks, replayed journal ops).  The effective ``min_fork_batch`` /
    ``margin_cells`` knob values are recorded in the document so a saved
    baseline documents the tuning that produced it.  ``cpu_count`` is
    recorded too: the speculative backends can only turn batch concurrency
    into wall-clock speedup when the host actually has cores to run the
    workers on.
    """
    from repro.baselines.dac2012 import Dac2012Router
    from repro.bench.suites import suite_case
    from repro.dr.router import DetailedRouter
    from repro.sched import resolve_batch_margin, resolve_min_fork_batch
    from repro.tpl.mr_tpl import MrTPLRouter

    if scale is None:
        scale = default_bench_scale()
    repeat = max(1, repeat)
    min_fork_batch = resolve_min_fork_batch(min_fork_batch)
    margin_cells = resolve_batch_margin(margin_cells)
    router_classes = {
        "maze": DetailedRouter,
        "color-state": MrTPLRouter,
        "dac2012": Dac2012Router,
    }
    case_list = [(suite, number) for number in cases]
    # Appendix cases can coincide with the selected sweep (e.g. the
    # full-scale ispd19 1-5 sweep already covers dense case 4): route each
    # case once, or the geomean would double-weight it.
    for extra in (dense_cases, sparse_cases):
        case_list.extend(entry for entry in extra if entry not in case_list)
    results: List[Dict[str, object]] = []
    for case_suite, number in case_list:
        for router_key in routers:
            router_class = router_classes[router_key]

            def run_mode(backend: Optional[str]):
                samples: List[float] = []
                mode_digests: List[object] = []
                batch_stats: Dict[str, int] = {}
                for _round in range(repeat):
                    design = suite_case(case_suite, number, scale).build()
                    if backend is None:
                        router = router_class(design)
                    else:
                        router = router_class(
                            design,
                            parallelism=parallelism,
                            batch_backend=backend,
                            batch_policy=policy,
                            min_fork_batch=min_fork_batch,
                            batch_margin=margin_cells,
                        )
                    start = time.perf_counter()
                    solution = router.run()
                    samples.append(time.perf_counter() - start)
                    mode_digests.append(
                        (solution_fingerprint(solution), solution_metrics(solution))
                    )
                    if backend is not None:
                        batch_stats = router.batch_executor.stats.as_dict()
                stable = all(digest == mode_digests[0] for digest in mode_digests)
                return median(samples), mode_digests[0], stable, batch_stats

            seq_seconds, seq_digest, seq_stable, _ = run_mode(None)
            for backend in backends:
                seconds, digest, stable, batch_stats = run_mode(backend)
                results.append(
                    {
                        "suite": case_suite,
                        "case": number,
                        "router": router_key,
                        "backend": backend,
                        "sequential_seconds": round(seq_seconds, 4),
                        "batched_seconds": round(seconds, 4),
                        "speedup": round(seq_seconds / max(seconds, 1e-9), 3),
                        "identical_solutions": seq_stable
                        and stable
                        and digest == seq_digest,
                        "batch_stats": batch_stats,
                        "metrics": digest[1],
                    }
                )
    speedups = [entry["speedup"] for entry in results]
    geomean = 1.0
    for value in speedups:
        geomean *= max(value, 1e-9)
    geomean **= 1.0 / max(len(speedups), 1)
    return {
        "benchmark": "batched rip-up loop (disjoint-batch scheduler) vs sequential",
        "suite": suite,
        "scale": scale,
        "cases": list(cases),
        "dense_cases": [list(entry) for entry in dense_cases],
        "sparse_cases": [list(entry) for entry in sparse_cases],
        "repeat": repeat,
        "parallelism": parallelism,
        "backends": list(backends),
        "policy": policy,
        "min_fork_batch": min_fork_batch,
        "margin_cells": margin_cells,
        "cpu_count": os.cpu_count(),
        "numpy_available": have_numpy(),
        "numpy_enabled": numpy_enabled(),
        "results": results,
        "geomean_speedup": round(geomean, 3),
        "all_identical": all(entry["identical_solutions"] for entry in results),
    }


# ----------------------------------------------------------------------
# Incremental-check micro-benchmark (delta tallies vs full re-scan)
# ----------------------------------------------------------------------

def _drc_digest(grouped) -> Dict[str, tuple]:
    return {
        kind: tuple(sorted((v.kind, v.nets) for v in violations))
        for kind, violations in grouped.items()
    }


def _conflict_digest(report) -> tuple:
    return (
        tuple(
            sorted(
                (c.kind, tuple(sorted((c.net_a, c.net_b))), c.layer)
                for c in report.conflicts
            )
        ),
        report.uncolored_vertices,
    )


def run_incremental_check_benchmarks(
    suite: str = "ispd18",
    cases: Tuple[int, ...] = (1, 2, 3),
    scale: Optional[float] = None,
    rounds: int = 16,
) -> Dict[str, object]:
    """Benchmark incremental checking against the full re-scan oracle.

    For every suite case the design is routed once with Mr.TPL, then
    *rounds* rip-up/reroute mutations replay the negotiation loop's check
    workload.  After each mutation both check paths run on the identical
    solution -- the full-scan ``DRCChecker`` + ``ConflictChecker`` and the
    delta-driven ``repro.check`` counterparts -- asserting equal reports and
    accumulating each path's wall-clock.  Returns the result document that
    :func:`main` serialises to JSON.
    """
    from repro.bench.suites import suite_case
    from repro.check import IncrementalConflictChecker, IncrementalDRCChecker
    from repro.dr.drc import DRCChecker
    from repro.tpl.conflict import ConflictChecker
    from repro.tpl.mr_tpl import MrTPLRouter

    if scale is None:
        scale = default_bench_scale()
    results: List[Dict[str, object]] = []
    for number in cases:
        design = suite_case(suite, number, scale).build()
        from repro.grid import RoutingGrid

        grid = RoutingGrid(design)
        router = MrTPLRouter(design, grid=grid, use_global_router=False)
        solution = router.run()

        full_drc = DRCChecker(design, grid)
        full_conflicts = ConflictChecker(design, grid)
        inc_drc = IncrementalDRCChecker(design, grid)
        inc_conflicts = IncrementalConflictChecker(design, grid)
        inc_drc.refresh(solution)  # initial build happens once, outside timing
        inc_conflicts.refresh(solution)

        net_names = sorted(
            route.net_name for route in solution.routes.values() if route.routed
        )
        if not net_names:
            results.append(
                {
                    "suite": suite,
                    "case": number,
                    "rounds": 0,
                    "full_seconds": 0.0,
                    "incremental_seconds": 0.0,
                    "speedup": 1.0,
                    "identical_reports": True,
                    "note": "no routed nets; mutation loop skipped",
                }
            )
            continue
        full_seconds = 0.0
        incremental_seconds = 0.0
        identical = True
        for round_number in range(rounds):
            name = net_names[round_number % len(net_names)]
            grid.release_net(name)
            solution.routes.pop(name, None)
            solution.add_route(router.route_net(design.net_by_name(name)))

            start = time.perf_counter()
            inc_grouped = inc_drc.check(solution)
            inc_report = inc_conflicts.check(solution)
            incremental_seconds += time.perf_counter() - start

            start = time.perf_counter()
            full_grouped = full_drc.check(solution)
            full_report = full_conflicts.check(solution)
            full_seconds += time.perf_counter() - start

            identical = (
                identical
                and _drc_digest(inc_grouped) == _drc_digest(full_grouped)
                and _conflict_digest(inc_report) == _conflict_digest(full_report)
            )
        results.append(
            {
                "suite": suite,
                "case": number,
                "rounds": rounds,
                "full_seconds": round(full_seconds, 4),
                "incremental_seconds": round(incremental_seconds, 4),
                "speedup": round(full_seconds / max(incremental_seconds, 1e-9), 3),
                "identical_reports": identical,
            }
        )
    speedups = [entry["speedup"] for entry in results]
    geomean = 1.0
    for value in speedups:
        geomean *= max(value, 1e-9)
    geomean **= 1.0 / max(len(speedups), 1)
    return {
        "benchmark": "incremental check vs full re-scan (rip-up loop workload)",
        "suite": suite,
        "scale": scale,
        "cases": list(cases),
        "numpy_available": have_numpy(),
        "numpy_enabled": numpy_enabled(),
        "results": results,
        "geomean_speedup": round(geomean, 3),
        "all_identical": all(entry["identical_reports"] for entry in results),
    }


def run_check_kernel_benchmarks(
    suite: str = "ispd18",
    cases: Tuple[int, ...] = (1, 2, 3),
    scale: Optional[float] = None,
    rounds: int = 16,
    campaign_routers: Tuple[str, ...] = ("maze", "color-state", "dac2012"),
) -> Dict[str, object]:
    """Benchmark the accelerated incremental-check tier against the pure loops.

    Two legs per suite case.  The **refresh** leg routes a *sparse
    variant* of the suite case once with Mr.TPL, then replays *rounds*
    rip-up/reroute mutations; after each mutation two independent
    incremental checker pairs ``refresh`` the same solution -- one on the
    fastest available tier (native ``_checkwork`` kernel or the numpy
    broadcast scan) and one forced onto the pure dict/set loops -- timing
    exactly the refresh calls and, outside the timed region, asserting
    that both reports match each other *and* a full re-scan by the frozen
    oracles.  The sparse variant keeps each net's compact pin cluster but
    scatters the clusters across an enlarged grid under a widened hard
    spacing: every occupied vertex probes a large planar neighborhood and
    nearly all probes miss, which is the regime the accelerated scan
    exists for.  On the dense suite defaults both tiers spend their time
    in identical per-violation Python work and the scan measures nothing
    but it (Amdahl).  The **campaign** leg runs a full routing campaign
    per router (plain maze, Mr.TPL, DAC-2012 baseline) on the unmodified
    suite case under both tiers and asserts the solutions are
    bit-identical (vertices, colors, edges, stitches).

    ``geomean_speedup`` covers the refresh legs (the tentpole criterion);
    ``all_identical`` covers every leg.  Returns the result document that
    :func:`main` serialises to ``BENCH_check_kernel.json``.
    """
    import dataclasses

    from repro.baselines.dac2012 import Dac2012Router
    from repro.bench.suites import suite_case
    from repro.bench.synthetic import generate_design
    from repro.check import IncrementalConflictChecker, IncrementalDRCChecker
    from repro.dr.drc import DRCChecker
    from repro.dr.router import DetailedRouter
    from repro.grid import RoutingGrid
    from repro.tpl.conflict import ConflictChecker
    from repro.tpl.mr_tpl import MrTPLRouter

    if scale is None:
        scale = default_bench_scale()

    def forced_pure(run):
        # Gates only the check scan: the search engines keep their tiers,
        # so the legs differ in exactly the code under measurement.
        previous = set_check_scan_enabled(False)
        try:
            return run()
        finally:
            set_check_scan_enabled(previous)

    tier = active_check_tier()
    results: List[Dict[str, object]] = []
    # Sparse-variant knobs per case number: (grid multiplier, net-count
    # cap).  The densest case needs extra spreading to stay in the sparse
    # regime; the others keep the suite's net count.
    refresh_overrides: Dict[int, Tuple[int, Optional[int]]] = {3: (7, 16)}
    for number in cases:
        base_spec = suite_case(suite, number, scale).spec
        mult, net_cap = refresh_overrides.get(number, (5, None))
        spec = dataclasses.replace(
            base_spec,
            cols=base_spec.cols * mult,
            rows=base_spec.rows * mult,
            num_nets=net_cap if net_cap is not None else base_spec.num_nets,
        )
        design = generate_design(spec)
        # Widen the hard spacing so each occupied vertex probes a large
        # planar neighborhood (the suite defaults keep min_spacing under
        # one pitch, which leaves the spacing scan with an empty offset
        # table -- no check work for either tier to chew on).
        design.tech.rules.min_spacing = max(design.tech.rules.min_spacing, 44)
        grid = RoutingGrid(design)
        router = MrTPLRouter(design, grid=grid, use_global_router=False)
        solution = router.run()

        full_drc = DRCChecker(design, grid)
        full_conflicts = ConflictChecker(design, grid)
        accel_drc = IncrementalDRCChecker(design, grid)
        accel_conflicts = IncrementalConflictChecker(design, grid)
        pure_drc = IncrementalDRCChecker(design, grid)
        pure_conflicts = IncrementalConflictChecker(design, grid)
        # Initial builds happen once, outside timing, each on its own tier.
        accel_drc.refresh(solution)
        accel_conflicts.refresh(solution)
        forced_pure(lambda: (pure_drc.refresh(solution), pure_conflicts.refresh(solution)))

        net_names = sorted(
            route.net_name for route in solution.routes.values() if route.routed
        )
        if not net_names:
            results.append(
                {
                    "kind": "refresh", "suite": suite, "case": number,
                    "rounds": 0, "pure_seconds": 0.0, "accel_seconds": 0.0,
                    "speedup": 1.0, "identical_reports": True,
                    "check_tier": tier,
                    "note": "no routed nets; mutation loop skipped",
                }
            )
            continue
        pure_seconds = 0.0
        accel_seconds = 0.0
        identical = True
        # A real negotiation iteration rips up a whole offender set, so each
        # round dirties a sliding batch of nets, not a single one.
        batch = max(1, len(net_names) // 4)
        for round_number in range(rounds):
            for slot in range(batch):
                name = net_names[(round_number * batch + slot) % len(net_names)]
                grid.release_net(name)
                solution.routes.pop(name, None)
                solution.add_route(router.route_net(design.net_by_name(name)))

            start = time.perf_counter()
            accel_drc.refresh(solution)
            accel_conflicts.refresh(solution)
            accel_seconds += time.perf_counter() - start

            def pure_leg():
                start = time.perf_counter()
                pure_drc.refresh(solution)
                pure_conflicts.refresh(solution)
                return time.perf_counter() - start

            pure_seconds += forced_pure(pure_leg)

            # Report comparison runs outside the timed region: ``check``
            # re-sorts the full violation report, identical work on both
            # tiers that would only dilute the refresh measurement.  The
            # refreshes above already absorbed the dirty nets, so these
            # calls just sort and compare.
            accel_grouped = accel_drc.check(solution)
            accel_report = accel_conflicts.check(solution)
            identical = (
                identical
                and _drc_digest(accel_grouped) == _drc_digest(pure_drc.check(solution))
                and _conflict_digest(accel_report)
                == _conflict_digest(pure_conflicts.check(solution))
                and _drc_digest(accel_grouped) == _drc_digest(full_drc.check(solution))
                and _conflict_digest(accel_report)
                == _conflict_digest(full_conflicts.check(solution))
            )
        results.append(
            {
                "kind": "refresh",
                "suite": suite,
                "case": number,
                "rounds": rounds,
                "workload": {
                    "cols": spec.cols,
                    "rows": spec.rows,
                    "num_nets": spec.num_nets,
                    "min_spacing": design.tech.rules.min_spacing,
                    "grid_multiplier": mult,
                },
                "pure_seconds": round(pure_seconds, 4),
                "accel_seconds": round(accel_seconds, 4),
                "speedup": round(pure_seconds / max(accel_seconds, 1e-9), 3),
                "identical_reports": identical,
                "check_tier": tier,
            }
        )

    router_classes = {
        "maze": DetailedRouter,
        "color-state": MrTPLRouter,
        "dac2012": Dac2012Router,
    }
    campaign_case = cases[0]
    for router_key in campaign_routers:
        router_class = router_classes[router_key]
        legs: Dict[str, Tuple[float, object, object, Dict[str, float]]] = {}
        for leg in ("accel", "pure"):
            def campaign():
                design = suite_case(suite, campaign_case, scale).build()
                leg_router = router_class(design)
                start = time.perf_counter()
                leg_solution = leg_router.run()
                elapsed = time.perf_counter() - start
                return (
                    elapsed,
                    solution_fingerprint(leg_solution),
                    solution_metrics(leg_solution),
                    leg_router.phases.as_dict(),
                )

            legs[leg] = campaign() if leg == "accel" else forced_pure(campaign)
        accel_elapsed, accel_digest, accel_metrics, accel_phases = legs["accel"]
        pure_elapsed, pure_digest, pure_metrics, _ = legs["pure"]
        results.append(
            {
                "kind": "campaign",
                "suite": suite,
                "case": campaign_case,
                "router": router_key,
                "pure_seconds": round(pure_elapsed, 4),
                "accel_seconds": round(accel_elapsed, 4),
                "speedup": round(pure_elapsed / max(accel_elapsed, 1e-9), 3),
                "identical_solutions": accel_digest == pure_digest
                and accel_metrics == pure_metrics,
                "check_tier": tier,
                "metrics": accel_metrics,
                "phase_seconds": {
                    name: round(value, 4) for name, value in accel_phases.items()
                },
            }
        )

    refresh_speedups = [
        entry["speedup"] for entry in results if entry["kind"] == "refresh"
    ]
    geomean = 1.0
    for value in refresh_speedups:
        geomean *= max(value, 1e-9)
    geomean **= 1.0 / max(len(refresh_speedups), 1)
    return {
        "benchmark": "incremental-check tiers: accelerated scan vs pure loops",
        "suite": suite,
        "scale": scale,
        "cases": list(cases),
        "rounds": rounds,
        "check_tier": tier,
        "check_native_available": check_native_available(),
        "numpy_available": have_numpy(),
        "numpy_enabled": numpy_enabled(),
        "results": results,
        "geomean_speedup": round(geomean, 3),
        "all_identical": all(
            entry.get("identical_reports", entry.get("identical_solutions", True))
            for entry in results
        ),
    }


def run_checkpoint_benchmarks(
    suite: str = "ispd18",
    cases: Tuple[int, ...] = (1, 2, 3),
    scale: Optional[float] = None,
    repeat: int = 1,
) -> Dict[str, object]:
    """Benchmark snapshot-folded (v2) checkpoints against full journal replay.

    For every suite case a full Mr.TPL rip-up campaign runs with a journal
    attached, then the same campaign is checkpointed both ways: the
    complete op log (what a v1-era document carried -- restore cost grows
    with campaign age) and the checkpoint-v2 form after
    :meth:`MutationJournal.fold` (grid snapshot + empty suffix -- restore
    cost bounded by the grid).  Both documents are restored through
    :func:`repro.io.journal_io.checkpoint_from_dict` and the rebuilt grids
    asserted state-identical; the report records document sizes, op counts
    and the best-of-*repeat* restore wall-clocks.  Returns the result
    document that :func:`main` serialises to JSON.
    """
    from repro.campaign import CampaignState
    from repro.bench.suites import suite_case
    from repro.grid import RoutingGrid
    from repro.io.journal_io import checkpoint_from_dict, checkpoint_to_dict
    from repro.tpl.mr_tpl import MrTPLRouter

    if scale is None:
        scale = default_bench_scale()

    def timed_restore(document_text: str) -> Tuple[float, RoutingGrid]:
        best = float("inf")
        restored_grid = None
        for _ in range(max(repeat, 1)):
            document = json.loads(document_text)  # fresh doc: restore mutates nothing, but stay honest
            start = time.perf_counter()
            _design, restored_grid, _journal, _solution = checkpoint_from_dict(document)
            best = min(best, time.perf_counter() - start)
        return best, restored_grid

    results: List[Dict[str, object]] = []
    for number in cases:
        design = suite_case(suite, number, scale).build()
        grid = RoutingGrid(design)
        journal = grid.attach_journal()
        router = MrTPLRouter(design, grid=grid, use_global_router=False)
        campaign = CampaignState()
        solution = router.run(campaign=campaign)

        replay_text = json.dumps(checkpoint_to_dict(design, journal, solution, campaign))
        campaign_ops = len(journal)
        replay_seconds, replay_grid = timed_restore(replay_text)

        journal.fold(grid.snapshot_state())
        folded_text = json.dumps(checkpoint_to_dict(design, journal, solution, campaign))
        folded_seconds, folded_grid = timed_restore(folded_text)

        results.append(
            {
                "suite": suite,
                "case": number,
                "iterations": solution.iterations,
                "campaign_ops": campaign_ops,
                "folded_suffix_ops": len(journal.ops),
                "replay_bytes": len(replay_text),
                "folded_bytes": len(folded_text),
                "size_ratio": round(len(replay_text) / max(len(folded_text), 1), 3),
                "replay_restore_seconds": round(replay_seconds, 4),
                "folded_restore_seconds": round(folded_seconds, 4),
                "restore_speedup": round(replay_seconds / max(folded_seconds, 1e-9), 3),
                "identical_restores": replay_grid.snapshot_state()
                == folded_grid.snapshot_state(),
            }
        )
    speedups = [entry["restore_speedup"] for entry in results]
    geomean = 1.0
    for value in speedups:
        geomean *= max(value, 1e-9)
    geomean **= 1.0 / max(len(speedups), 1)
    return {
        "benchmark": "checkpoint-v2 snapshot-folded restore vs full journal replay",
        "suite": suite,
        "scale": scale,
        "cases": list(cases),
        "repeat": repeat,
        "numpy_available": have_numpy(),
        "numpy_enabled": numpy_enabled(),
        "results": results,
        "geomean_speedup": round(geomean, 3),
        "all_identical": all(entry["identical_restores"] for entry in results),
    }


def run_fault_tolerance_benchmarks(
    scale: Optional[float] = None,
    deadline: float = 2.0,
) -> Dict[str, object]:
    """Measure recovery overhead of the supervised executor under injected faults.

    Each leg routes the pool-engaging sparse case with one deterministic
    fault armed (:mod:`repro.faults`) -- a SIGKILL-style worker crash, a
    compute hang cut off by the batch deadline, slow-but-alive replies --
    plus a torn-final-checkpoint leg that resumes a campaign through the
    keep-K fallback.  Every leg asserts the recovered solution is
    **bit-identical** to the fault-free serial run and records the wall
    clock next to the fault-free pool leg, so the JSON baseline
    (``BENCH_fault_tolerance.json``) tracks what a crash, a hang or a torn
    write actually costs end to end, together with the ``ExecutorStats``
    recovery counters that prove the fault fired.
    """
    import multiprocessing
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    from repro import faults
    from repro.bench.suites import suite_case
    from repro.eval.experiments import route_with_checkpoint
    from repro.grid import RoutingGrid
    from repro.io.journal_io import load_checkpoint_document
    from repro.tpl.mr_tpl import MrTPLRouter

    if scale is None:
        scale = 0.4  # engages the pool (8 parallel batches) with 2 workers
    have_fork = "fork" in multiprocessing.get_all_start_methods()
    recovery_keys = (
        "worker_errors", "retries", "deadline_timeouts", "worker_replacements",
        "demotions", "bootstrap_fallbacks", "worker_kills", "heartbeats",
    )

    def build():
        return suite_case("sparse", 1, scale).build()

    design = build()
    start = time.perf_counter()
    reference = solution_fingerprint(
        MrTPLRouter(design, grid=RoutingGrid(design), use_global_router=False).run()
    )
    serial_seconds = time.perf_counter() - start

    results: List[Dict[str, object]] = []
    legs = (
        ("fault-free", None, {}),
        ("worker-crash", "worker.crash:worker=0,op=200", {}),
        ("worker-hang", "worker.hang:worker=0,seconds=30",
         {"REPRO_BATCH_DEADLINE": f"{deadline}"}),
        ("reply-delay", "reply.delay:seconds=0.01,times=*", {}),
    )
    fault_free_seconds = None
    for leg, plan, env in legs:
        if not have_fork:
            continue  # the pool legs need fork; the report records the gap
        with ExitStack() as stack:
            for key, value in env.items():
                previous = os.environ.get(key)
                os.environ[key] = value
                stack.callback(
                    lambda key=key, previous=previous: (
                        os.environ.__setitem__(key, previous)
                        if previous is not None
                        else os.environ.pop(key, None)
                    )
                )
            if plan is not None:
                stack.enter_context(faults.injected(plan))
            case = build()
            router = MrTPLRouter(
                case, grid=RoutingGrid(case), use_global_router=False,
                parallelism=2, batch_backend="pool", min_fork_batch=2,
            )
            start = time.perf_counter()
            fingerprint = solution_fingerprint(router.run())
            seconds = time.perf_counter() - start
        stats = router.batch_executor.stats.as_dict()
        if leg == "fault-free":
            fault_free_seconds = seconds
        results.append({
            "leg": leg,
            "plan": plan,
            "seconds": round(seconds, 4),
            "overhead_vs_fault_free": round(
                seconds / max(fault_free_seconds or seconds, 1e-9), 3
            ),
            "identical_solutions": fingerprint == reference,
            "recovery": {key: stats[key] for key in recovery_keys},
        })

    # Torn-final-checkpoint leg: serial campaign, torn newest document,
    # resume through the retained generation (no fork needed).
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "ckpt.json"
        case = fig1_dense_cluster()
        start = time.perf_counter()
        solution, _grid, _resumed = route_with_checkpoint(
            case, MrTPLRouter, path, checkpoint_keep=2, use_global_router=False
        )
        campaign_seconds = time.perf_counter() - start
        torn_reference = solution_fingerprint(solution)
        path.write_text(path.read_text()[: max(path.stat().st_size // 2, 16)])
        start = time.perf_counter()
        solution2, _grid2, resumed = route_with_checkpoint(
            fig1_dense_cluster(), MrTPLRouter, path, checkpoint_keep=2,
            use_global_router=False,
        )
        resume_seconds = time.perf_counter() - start
        fallbacks = load_checkpoint_document(path)["campaign"]["executor_stats"][
            "checkpoint_fallbacks"
        ]
    results.append({
        "leg": "torn-checkpoint",
        "plan": "truncate newest generation, resume via keep-K fallback",
        "seconds": round(campaign_seconds, 4),
        "resume_seconds": round(resume_seconds, 4),
        "overhead_vs_fault_free": round(
            resume_seconds / max(campaign_seconds, 1e-9), 3
        ),
        "identical_solutions": resumed
        and solution_fingerprint(solution2) == torn_reference,
        "recovery": {"checkpoint_fallbacks": fallbacks},
    })

    ratios = [
        entry["overhead_vs_fault_free"]
        for entry in results
        if entry["leg"] != "fault-free"
    ]
    geomean = 1.0
    for value in ratios:
        geomean *= max(value, 1e-9)
    geomean **= 1.0 / max(len(ratios), 1)
    return {
        "benchmark": "fault-injected recovery overhead (supervised executor)",
        "suite": "sparse",
        "case": 1,
        "scale": scale,
        "deadline_seconds": deadline,
        "have_fork": have_fork,
        "serial_seconds": round(serial_seconds, 4),
        "results": results,
        # `main` prints this as a speedup; for this mode it is the geomean
        # *recovery overhead* ratio vs the fault-free leg (lower is better).
        "geomean_speedup": round(geomean, 3),
        "all_identical": all(entry["identical_solutions"] for entry in results),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the micro-benchmarks and write a JSON baseline."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run one micro-benchmark mode and write its JSON baseline."
    )
    parser.add_argument("--suite", default="ispd18", choices=("ispd18", "ispd19", "sparse"))
    parser.add_argument("--cases", default="1,2,3", help="comma-separated case numbers")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=f"suite scale factor (default: REPRO_BENCH_SCALE or {DEFAULT_BENCH_SCALE})",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="route each case this many times and report the median, "
        "so speedup numbers are stable",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="single small case (CI smoke mode)"
    )
    # Exactly one mode per run: without one, argparse exits naming them.
    modes = parser.add_mutually_exclusive_group(required=True)
    modes.add_argument(
        "--incremental",
        action="store_true",
        help="benchmark incremental checking against the full re-scan "
        "(default output: BENCH_incremental_check.json)",
    )
    modes.add_argument(
        "--batched",
        action="store_true",
        help="benchmark the batched rip-up loop (repro.sched disjoint-batch "
        "executor) against the sequential loop (default output: "
        "BENCH_batch_sched.json)",
    )
    modes.add_argument(
        "--native",
        action="store_true",
        help="benchmark the compiled relaxation kernel against the buffered "
        "flat-label loop (default output: BENCH_native_kernel.json)",
    )
    modes.add_argument(
        "--check-kernel",
        action="store_true",
        help="benchmark the accelerated incremental-check tier (native "
        "_checkwork kernel / numpy broadcast scan) against the pure "
        "dict/set loops, plus full-campaign bit-identity legs for all "
        "three routers (default output: BENCH_check_kernel.json)",
    )
    modes.add_argument(
        "--checkpoint",
        action="store_true",
        help="benchmark checkpoint-v2 snapshot-folded restore against full "
        "journal replay (default output: BENCH_checkpoint.json)",
    )
    modes.add_argument(
        "--faults",
        action="store_true",
        help="benchmark fault-injected recovery (seeded worker crash / hang "
        "/ slow replies / torn checkpoint against the supervised pool "
        "executor) (default output: BENCH_fault_tolerance.json)",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="print the per-phase wall-clock breakdown (plan/search/commit/"
        "check/ipc/checkpoint) accumulated while producing the report; the "
        "breakdown is recorded in the JSON as phase_seconds either way",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="batch deadline in seconds for the worker-hang fault leg "
        "(--faults only)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help="run the selected benchmark under cProfile and print the top N "
        "functions by cumulative time (default N: 25); the raw stats are "
        "dumped next to the JSON output as <out>.prof",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=4,
        help="worker count of the batched executor (--batched only)",
    )
    parser.add_argument(
        "--backend",
        default="thread",
        help="comma-separated batched-executor backend list "
        "(serial/thread/pool; --batched only)",
    )
    parser.add_argument(
        "--min-fork-batch",
        type=int,
        default=None,
        help="smallest batch worth forking for (default: REPRO_MIN_FORK_BATCH "
        "or 3; --batched only)",
    )
    parser.add_argument(
        "--margin-cells",
        type=int,
        default=None,
        help="extra scheduler window margin in cells (default: "
        "REPRO_BATCH_MARGIN or 0; --batched only)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: the selected mode's baseline file)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        if args.faults:
            args.out = "BENCH_fault_tolerance.json"
        elif args.checkpoint:
            args.out = "BENCH_checkpoint.json"
        elif args.check_kernel:
            args.out = "BENCH_check_kernel.json"
        elif args.native:
            args.out = "BENCH_native_kernel.json"
        elif args.batched:
            args.out = "BENCH_batch_sched.json"
        else:
            args.out = "BENCH_incremental_check.json"

    cases = tuple(int(token) for token in args.cases.split(",") if token.strip())
    backends = tuple(token.strip() for token in args.backend.split(",") if token.strip())
    if args.batched:
        # Reject typos up front: a bad second backend must not surface only
        # after the first backend's (potentially hours-long) sweep ran.
        from repro.sched import BACKENDS

        unknown = [backend for backend in backends if backend not in BACKENDS]
        if unknown:
            parser.error(
                f"unknown --backend value(s) {unknown}; expected among {BACKENDS}"
            )
        if not backends:
            parser.error("--backend selected no backends")
    scale = args.scale
    dense_cases = DENSE_CASES
    sparse_cases = SPARSE_CASES
    if args.smoke:
        cases, scale, dense_cases, sparse_cases = (1,), 0.5, (), ()
    if not cases:
        parser.error("--cases selected no case numbers")
    def produce_report():
        if args.faults:
            return run_fault_tolerance_benchmarks(
                scale=args.scale, deadline=args.deadline
            )
        if args.incremental:
            return run_incremental_check_benchmarks(
                suite=args.suite, cases=cases, scale=scale
            )
        if args.check_kernel:
            return run_check_kernel_benchmarks(
                suite=args.suite,
                cases=cases,
                scale=scale,
                campaign_routers=("color-state",)
                if args.smoke
                else ("maze", "color-state", "dac2012"),
            )
        if args.checkpoint:
            return run_checkpoint_benchmarks(
                suite=args.suite, cases=cases, scale=scale, repeat=args.repeat
            )
        if args.batched:
            return run_batch_sched_benchmarks(
                suite=args.suite,
                cases=cases,
                scale=scale,
                repeat=args.repeat,
                parallelism=args.parallelism,
                backends=backends,
                min_fork_batch=args.min_fork_batch,
                margin_cells=args.margin_cells,
                dense_cases=dense_cases,
                sparse_cases=sparse_cases,
            )
        return run_native_kernel_benchmarks(
            suite=args.suite,
            cases=cases,
            scale=scale,
            repeat=args.repeat,
            dense_cases=dense_cases,
        )

    phase_snapshot = global_phase_snapshot()
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            report = produce_report()
        finally:
            profiler.disable()
        stats_path = f"{args.out}.prof"
        profiler.dump_stats(stats_path)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(max(1, args.profile))
        print(f"profile stats dumped to {stats_path}")
    else:
        report = produce_report()
    # Every benchmark document carries the per-phase wall-clock breakdown
    # accumulated across all routers/executors the scenario constructed.
    report["phase_seconds"] = {
        name: round(value, 4)
        for name, value in global_phase_delta(phase_snapshot).items()
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for entry in report["results"]:
        if args.faults:
            recovery = ", ".join(
                f"{key}={value}"
                for key, value in entry["recovery"].items()
                if value
            )
            print(
                f"{entry['leg']:<16} {entry['seconds']:.3f}s "
                f"overhead={entry['overhead_vs_fault_free']:.2f}x "
                f"identical={entry['identical_solutions']} "
                f"[{recovery or 'no recovery needed'}]"
            )
        elif args.incremental:
            print(
                f"{entry['suite']} case{entry['case']:>2} rounds={entry['rounds']} "
                f"full={entry['full_seconds']:.3f}s "
                f"incremental={entry['incremental_seconds']:.3f}s "
                f"speedup={entry['speedup']:.2f}x identical={entry['identical_reports']}"
            )
        elif args.check_kernel:
            if entry["kind"] == "refresh":
                print(
                    f"{entry['suite']} case{entry['case']:>2} refresh      "
                    f"rounds={entry['rounds']} "
                    f"pure={entry['pure_seconds']:.3f}s "
                    f"accel={entry['accel_seconds']:.3f}s "
                    f"speedup={entry['speedup']:.2f}x "
                    f"tier={entry['check_tier']} "
                    f"identical={entry['identical_reports']}"
                )
            else:
                print(
                    f"{entry['suite']} case{entry['case']:>2} campaign "
                    f"{entry['router']:<12} "
                    f"pure={entry['pure_seconds']:.3f}s "
                    f"accel={entry['accel_seconds']:.3f}s "
                    f"speedup={entry['speedup']:.2f}x "
                    f"identical={entry['identical_solutions']}"
                )
        elif args.checkpoint:
            print(
                f"{entry['suite']} case{entry['case']:>2} "
                f"ops={entry['campaign_ops']}->{entry['folded_suffix_ops']} "
                f"bytes={entry['replay_bytes']}->{entry['folded_bytes']} "
                f"({entry['size_ratio']:.2f}x) "
                f"restore replay={entry['replay_restore_seconds']:.3f}s "
                f"folded={entry['folded_restore_seconds']:.3f}s "
                f"speedup={entry['restore_speedup']:.2f}x "
                f"identical={entry['identical_restores']}"
            )
        elif args.batched:
            stats = entry["batch_stats"]
            print(
                f"{entry['suite']} case{entry['case']:>2} {entry['router']:<12} "
                f"{entry['backend']:<7} "
                f"sequential={entry['sequential_seconds']:.3f}s "
                f"batched={entry['batched_seconds']:.3f}s "
                f"speedup={entry['speedup']:.2f}x identical={entry['identical_solutions']} "
                f"batches={stats.get('batches', 0)} "
                f"largest={stats.get('largest_batch', 0)} "
                f"spec={stats.get('speculative_accepted', 0)}"
                f"/fb={stats.get('speculative_fallbacks', 0)} "
                f"forks={stats.get('pool_forks', 0)} "
                f"replayed={stats.get('replayed_ops', 0)}"
            )
        else:
            print(
                f"{entry['suite']} case{entry['case']:>2} {entry['router']:<12} "
                f"buffered={entry['buffered_seconds']:.3f}s "
                f"native={entry['native_seconds']:.3f}s "
                f"speedup={entry['speedup']:.2f}x "
                f"tier={entry['native_tier']} "
                f"identical={entry['identical_solutions']}"
            )
    if args.phases:
        phase_total = sum(report["phase_seconds"].values())
        for name in PHASE_NAMES:
            seconds = report["phase_seconds"].get(name, 0.0)
            share = 100.0 * seconds / phase_total if phase_total > 0 else 0.0
            print(f"phase {name:<10} {seconds:9.3f}s {share:5.1f}%")
    print(f"geomean speedup: {report['geomean_speedup']:.2f}x -> {args.out}")
    return 0 if report["all_identical"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke run
    raise SystemExit(main())
