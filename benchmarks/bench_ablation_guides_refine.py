"""Ablation: GR-guide usage.

The paper's flow "calculates color cost by GR guide": the detailed router
prefers staying inside the global-routing guide.  The ablation routes one
case with and without guides and reports wirelength, conflicts and runtime.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, run_once
from repro.bench.suites import ispd18_suite
from repro.eval import evaluate_solution
from repro.gr import GlobalRouter
from repro.grid import RoutingGrid
from repro.tpl import MrTPLRouter


def test_guides_ablation(benchmark):
    """Compare Mr.TPL with and without global-routing guides."""
    case = ispd18_suite(bench_scale(), cases=[2])[0]

    def run_both():
        design_guided = case.build()
        guides = GlobalRouter(design_guided).route()
        grid_guided = RoutingGrid(design_guided)
        guided = MrTPLRouter(design_guided, grid=grid_guided, guides=guides,
                             use_global_router=False, max_iterations=2).run()
        guided_eval = evaluate_solution(design_guided, grid_guided, guided, guides)

        design_free = case.build()
        grid_free = RoutingGrid(design_free)
        free = MrTPLRouter(design_free, grid=grid_free, use_global_router=False,
                           max_iterations=2).run()
        free_eval = evaluate_solution(design_free, grid_free, free)
        return guided_eval, free_eval

    guided, free = run_once(benchmark, run_both)
    print()
    print("Ablation: color cost restricted by GR guides vs unguided routing")
    print(f"  guided   : conflicts={guided.conflicts} wirelength={guided.wirelength} "
          f"runtime={guided.runtime_seconds:.2f}s")
    print(f"  unguided : conflicts={free.conflicts} wirelength={free.wirelength} "
          f"runtime={free.runtime_seconds:.2f}s")
    assert guided.open_nets == 0 and free.open_nets == 0

