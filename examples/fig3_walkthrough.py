#!/usr/bin/env python3
"""Reproduce the paper's Fig. 3 walk-through step by step.

A 4-pin net must route past two fixed shapes pre-assigned to mask 2 (green)
and mask 3 (blue).  The example shows the color state narrowing during the
search (111 -> 101 -> 100), then routes the full net with Mr.TPL and prints
the final mask of every wire segment, mirroring Fig. 3(g).

Run with::

    python examples/fig3_walkthrough.py
"""

from __future__ import annotations

from repro.bench.micro import fig3_walkthrough_design
from repro.dr import CostModel
from repro.eval import evaluate_solution
from repro.grid import RoutingGrid
from repro.tpl import ColorState, MASK_NAMES, MrTPLRouter
from repro.tpl.search import ColorStateSearch


def show_color_state_narrowing(design) -> None:
    """Run one raw color-state search and print the states along the path."""
    grid = RoutingGrid(design)
    engine = ColorStateSearch(grid, CostModel(grid))
    net = design.routable_nets()[0]
    pins = [grid.pin_access_vertices(pin) for pin in net.pins]
    # The search takes flat grid indices: (index, color-state bits) seeds.
    sources = [(grid.index_of(vertex), ColorState.all().bits) for vertex in pins[0]]
    targets = {grid.index_of(vertex) for vertex in pins[3]}  # pin4 sits past both fixed shapes
    result = engine.search(sources, targets, net.name)
    if not result.found:
        print("search failed (unexpected)")
        return
    print("color state along the search path (destination first):")
    for vertex in result.path_to_source():
        state = result.color_state_of(vertex)
        print(f"  M{vertex.layer + 1} ({vertex.col:>2d},{vertex.row:>2d})  state={state.encode()}"
              f"  [{state.describe()}]")


def route_and_report(design) -> None:
    """Route the whole 4-pin net with Mr.TPL and summarise the coloring."""
    grid = RoutingGrid(design)
    router = MrTPLRouter(design, grid=grid, use_global_router=False)
    solution = router.run()
    result = evaluate_solution(design, grid, solution)
    route = solution.route_of("fig3_net")
    usage = {0: 0, 1: 0, 2: 0}
    for color in route.vertex_colors.values():
        usage[color] += 1
    print()
    print("final routed result (paper Fig. 3(g)):")
    for color, count in usage.items():
        print(f"  vertices on {MASK_NAMES[color]:>5s} (mask {color + 1}): {count}")
    print(f"  stitches: {route.stitch_count()}   conflicts: {result.conflicts}   "
          f"opens: {result.open_nets}")


def main() -> None:
    design = fig3_walkthrough_design()
    print(f"design {design.name}: one 4-pin net, fixed shapes on mask 2 and mask 3")
    show_color_state_narrowing(design)
    route_and_report(design)


if __name__ == "__main__":
    main()
