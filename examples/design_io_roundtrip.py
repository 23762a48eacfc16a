#!/usr/bin/env python3
"""Persist a benchmark case and its routed result to disk and load them back.

Demonstrates the I/O layer on a realistic flow:

1. generate an ISPD-2019-like case (with pre-colored strap metal),
2. export it as DEF-lite text and JSON,
3. run global routing and export the ``.guide`` file,
4. route with Mr.TPL and export the colored solution as JSON,
5. reload everything and verify the round trip.

Run with::

    python examples/design_io_roundtrip.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench import ispd19_suite
from repro.gr import GlobalRouter
from repro.grid import RoutingGrid
from repro.grid.gcell import GCellGrid
from repro.io import (
    load_design_json,
    load_solution_json,
    read_def_lite,
    read_guides,
    save_design_json,
    save_solution_json,
    write_def_lite,
    write_guides,
)
from repro.tpl import MrTPLRouter


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("example_output")
    out_dir.mkdir(parents=True, exist_ok=True)

    case = ispd19_suite(scale=0.55, cases=[1])[0]
    design = case.build()
    print(f"generated {design.name}: {len(design.routable_nets())} nets, "
          f"{len(design.obstacles)} obstacles")

    def_path = out_dir / f"{design.name}.deflite"
    json_path = out_dir / f"{design.name}.json"
    write_def_lite(design, def_path)
    save_design_json(design, json_path)
    print(f"wrote {def_path} and {json_path}")

    router = GlobalRouter(design, gcell_size=16)
    guides = router.route()
    guide_path = out_dir / f"{design.name}.guide"
    write_guides(guides, guide_path)
    print(f"wrote {guide_path} ({len(guides)} nets)")

    grid = RoutingGrid(design)
    solution = MrTPLRouter(design, grid=grid, guides=guides, use_global_router=False).run()
    solution_path = out_dir / f"{design.name}.routes.json"
    save_solution_json(solution, solution_path)
    print(f"wrote {solution_path} ({solution.total_wirelength()} wire units, "
          f"{solution.total_stitches()} stitches)")

    # -- reload and verify ---------------------------------------------------
    reloaded_def = read_def_lite(def_path)
    reloaded_json = load_design_json(json_path)
    reloaded_guides = read_guides(guide_path, GCellGrid(design, gcell_size=16))
    reloaded_solution = load_solution_json(solution_path, grid.route_dims)

    assert len(reloaded_def.nets) == len(design.nets)
    assert len(reloaded_json.nets) == len(design.nets)
    assert reloaded_guides.net_names() == guides.net_names()
    assert reloaded_solution.total_wirelength() == solution.total_wirelength()
    print("round trip verified: DEF-lite, JSON, guides and routed solution all match")


if __name__ == "__main__":
    main()
