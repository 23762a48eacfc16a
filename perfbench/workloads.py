"""The benchmark's workloads: fixed synthetic designs routed end to end.

Every workload generates its design from a :class:`SyntheticSpec` written
here (not imported from ``repro.bench.suites``), so a change to the suite
tables never silently changes the benchmark.  One *leg* of a workload is
the user-visible pipeline, timed in three parts:

* set-up -- ``GlobalRouter.route``, ``RoutingGrid(...)`` and the router
  constructor (design generation is input creation and stays outside);
* route -- ``router.run()`` (plus ``LayoutDecomposer.decompose`` for the
  route-then-decompose comparator): the paper's runtime column;
* eval -- ``evaluate_solution`` on the final layout (full-scan oracles).

Each leg also hashes its solution and cross-checks the router's
incremental conflict count against the full-scan oracle.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

from repro.baselines import Dac2012Router, LayoutDecomposer
from repro.bench import synthetic
from repro.bench.synthetic import SyntheticSpec
from repro.design import Design
from repro.dr import DetailedRouter
from repro.eval import EvaluationResult, evaluate_solution
from repro.gr import GlobalRouter
from repro.grid import RoutingGrid, RoutingSolution
from repro.tpl import MrTPLRouter

#: Design seed every workload uses unless ``--design-seed`` overrides it.
DEFAULT_DESIGN_SEED = 1910

#: How many times one leg builds the router and evaluates the solution.
#: Both are short and easily disturbed, so ``setup_s`` and ``eval_s`` are
#: medians over every round of every leg.
ROUNDS = 3


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def dense_spec(design_seed: int, scale: float = 1.0) -> SyntheticSpec:
    """The ispd19-like test10 profile (44x44x4) without its macro.

    With the macro, 10-30% of the nets have a buried pin and can never
    route; without it every net routes, so a failed net is a regression.
    """
    return SyntheticSpec(
        name="dense_ispd19like_test10",
        seed=design_seed,
        cols=_scaled(44, scale, 16),
        rows=_scaled(44, scale, 16),
        num_layers=4,
        color_spacing=8,
        num_nets=_scaled(134, scale, 4),
        min_pins=2,
        max_pins=6,
        multi_pin_bias=0.7,
        net_radius=_scaled(10, scale, 5),
        obstacle_count=9,
        obstacle_span=5,
        colored_obstacle_fraction=0.6,
        macro_count=0,
        row_spacing=3,
        cell_spacing=3,
        strap_period=4,
    )


def sparse_spec(design_seed: int, scale: float = 1.0) -> SyntheticSpec:
    """The sparse test3 profile at 1.5x (144x144x4, short local nets).

    Pre-colored straps every fourth row (as on the ispd19-like designs)
    leave a few conflicts and stitches after the single routing pass, so
    the quality metrics count something real on this design.
    """
    scale *= 1.5
    return SyntheticSpec(
        name="sparse_test3_x1.5",
        seed=design_seed,
        cols=_scaled(96, scale, 32),
        rows=_scaled(96, scale, 32),
        num_layers=4,
        color_spacing=8,
        num_nets=_scaled(104, scale, 8),
        min_pins=2,
        max_pins=4,
        multi_pin_bias=0.55,
        net_radius=5,
        obstacle_count=4,
        obstacle_span=3,
        colored_obstacle_fraction=0.5,
        macro_count=0,
        row_spacing=4,
        cell_spacing=4,
        strap_period=4,
    )


def _mrtpl(design, grid, guides):
    return MrTPLRouter(design, grid=grid, guides=guides, use_global_router=False)


def _dac2012(design, grid, guides):
    return Dac2012Router(design, grid=grid, guides=guides, use_global_router=False)


def _plain(design, grid, guides):
    return DetailedRouter(design, grid=grid, guides=guides)


def _mrtpl_pool(design, grid, guides):
    # One routing pass (no rip-up rounds): the pool's plan / IPC / journal
    # replay path carries the whole campaign.
    return MrTPLRouter(
        design,
        grid=grid,
        guides=guides,
        use_global_router=False,
        batch_backend="pool",
        parallelism=2,
        max_iterations=0,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a design family and the router run on it.

    Why each workload exists is recorded in ``BENCHMARK.json`` and the
    directory's README.
    """

    name: str
    spec: Callable[[int, float], SyntheticSpec]
    make_router: Callable[[Design, RoutingGrid, object], object]
    decompose: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("dense-mrtpl", dense_spec, _mrtpl),
        Workload("dense-dac2012", dense_spec, _dac2012),
        Workload("dense-decompose", dense_spec, _plain, decompose=True),
        Workload("sparse-pool", sparse_spec, _mrtpl_pool),
    )
}


def build_design(workload: Workload, design_seed: int, scale: float = 1.0) -> Design:
    """Generate the workload's design (input creation, not timed by a leg)."""
    return synthetic.generate_design(workload.spec(design_seed, scale))


def solution_digest(solution: RoutingSolution) -> str:
    """Return a sha256 over every route's vertices, edges and mask colors."""
    digest = hashlib.sha256()
    for name in sorted(solution.routes):
        route = solution.routes[name]
        digest.update(repr((
            name,
            route.routed,
            sorted(tuple(v) for v in route.vertices),
            sorted((tuple(a), tuple(b)) for a, b in route.edges),
            sorted((tuple(v), c) for v, c in route.vertex_colors.items()),
        )).encode())
    return digest.hexdigest()


@dataclass
class Leg:
    """Timings, quality and checks of one set-up / route / eval pass."""

    setup_s: List[float]
    route_s: float
    eval_s: List[float]
    evaluation: EvaluationResult
    digest: str
    routable_nets: int
    failed_nets: int
    router: object
    problems: List[str] = field(default_factory=list)
    #: Span self time recorded while routing (traced legs only).
    route_attributed_s: float = 0.0


def run_leg(
    workload: Workload, design: Design, rounds: int = ROUNDS, tracer=None, speed=None
) -> Leg:
    """Set up, route and evaluate *design* once, checking the output.

    With a :class:`spans.Tracer`, the span self time closed while routing
    is kept as :attr:`Leg.route_attributed_s`.  A
    :class:`hostspeed.HostSpeed` records every timing as it is taken.
    """
    record = speed.record if speed is not None else (lambda name, raw_s: None)
    setup_s: List[float] = []
    router = None
    for _ in range(rounds):
        if router is not None and router.batch_executor is not None:
            router.batch_executor.close()
        router = None
        gc.collect()
        started = perf_counter()
        guides = GlobalRouter(design).route()
        grid = RoutingGrid(design)
        router = workload.make_router(design, grid, guides)
        setup_s.append(perf_counter() - started)
        record("setup_s", setup_s[-1])

    gc.collect()
    attributed_before = tracer.attributed_s() if tracer is not None else 0.0
    started = perf_counter()
    solution = router.run()
    if workload.decompose:
        solution = LayoutDecomposer(design, grid).decompose(solution).solution
    route_s = perf_counter() - started
    record("route_s", route_s)
    route_attributed_s = (
        tracer.attributed_s() - attributed_before if tracer is not None else 0.0
    )

    eval_s: List[float] = []
    for _ in range(rounds):
        gc.collect()
        started = perf_counter()
        evaluation = evaluate_solution(design, grid, solution, guides)
        eval_s.append(perf_counter() - started)
        record("eval_s", eval_s[-1])

    routable = design.routable_nets()
    routed = {route.net_name for route in solution.routed_nets()}
    failed = sum(1 for net in routable if net.name not in routed)
    problems = []
    if evaluation.open_nets != failed:
        problems.append(
            f"{evaluation.open_nets - failed} routed nets do not connect all their pins"
        )
    if evaluation.uncolored_vertices:
        problems.append(f"{evaluation.uncolored_vertices} routed vertices have no mask")
    # A traced leg is checked through its digest against an untraced one;
    # its trace must hold only the pipeline's own work.
    incremental = getattr(router, "incremental_conflicts", None)
    if incremental is not None and tracer is None:
        counted = incremental.check(solution).conflict_count
        if counted != evaluation.conflicts:
            problems.append(
                f"incremental checker counts {counted} conflicts, "
                f"full-scan oracle {evaluation.conflicts}"
            )
    return Leg(
        setup_s=setup_s,
        route_s=route_s,
        eval_s=eval_s,
        evaluation=evaluation,
        digest=solution_digest(solution),
        routable_nets=len(routable),
        failed_nets=failed,
        router=router,
        problems=problems,
        route_attributed_s=route_attributed_s,
    )


def quality(leg: Leg) -> Dict[str, float]:
    """Return the leg's quality numbers (identical across legs of one design)."""
    return {
        "conflicts": leg.evaluation.conflicts,
        "stitches": leg.evaluation.stitches,
        "ispd_score": leg.evaluation.score,
        "routed_net_frac": (leg.routable_nets - leg.failed_nets) / leg.routable_nets,
    }

