#!/usr/bin/env python
"""Nightly full-scale parity sweep: every tier and backend against serial.

The tier-1 tests pin tier and backend parity on small designs; this sweep
repeats the check on the full-scale suite cases.  For each case in
:data:`CASES` and each router it routes a serial reference on the default
tiers, then routes the same design on every leg of :data:`LEGS` and
requires the same ``solution_fingerprint`` and ``solution_metrics``.  Every
router routes with global-routing guides (the plain router is given
``GlobalRouter(design).route()``; the colour-aware routers build the same
guides themselves), so the maze legs exercise guide costs, windows and
target floors too.  The "search window off" leg makes every search run over
the whole grid, so it checks that the guide windows (with their unbounded
re-run) change no route; the "target floor off" leg gives every search a
target floor of 0, so it checks that stopping at a provably best target
changes no route.  The "native search off" and "pure python" legs close the
native search kernel, and with it the native pressure stamp of route
commits and releases (both follow ``accel.get_native_kernel()``), so those
legs also route on the pressure the grid's own stamp loop leaves.  The
pool leg is skipped where the ``fork`` start method is
unavailable.  One checkpoint leg per reference restores the grid from a
checkpoint document onto a fresh grid and requires the ``snapshot_state()``
of the reference's live grid.

Every mismatch is printed; the exit status is non-zero if there is one.

Usage::

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/parity_sweep.py
"""

import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import accel  # noqa: E402
from repro.baselines.dac2012 import Dac2012Router  # noqa: E402
from repro.bench.micro import solution_fingerprint, solution_metrics  # noqa: E402
from repro.bench.suites import suite_case  # noqa: E402
from repro.dr.cost import CostModel  # noqa: E402
from repro.dr.router import DetailedRouter  # noqa: E402
from repro.gr import GlobalRouter  # noqa: E402
from repro.gr.guide import GuideTables  # noqa: E402
from repro.grid import RoutingGrid  # noqa: E402
from repro.io.checkpoint_io import checkpoint_from_dict, checkpoint_to_dict  # noqa: E402
from repro.tpl.mr_tpl import MrTPLRouter  # noqa: E402

ROUTERS = {
    "maze": DetailedRouter,
    "color-state": MrTPLRouter,
    "dac2012": Dac2012Router,
}

#: Full-scale suite cases: the dense ispd-like sweeps plus the sparse cases
#: whose batches grow toward the parallelism cap.
CASES = (
    tuple(("ispd18", number) for number in range(1, 6))
    + tuple(("ispd19", number) for number in range(1, 6))
    + tuple(("sparse", number) for number in range(1, 4))
)
SCALE = 1.0

HAVE_FORK = sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()

_SEARCH_WINDOW = GuideTables.search_window


def set_search_window_enabled(enabled):
    """Gate the per-net search windows the way ``accel`` gates a tier.

    Off, ``GuideTables.search_window`` returns ``None`` for every net.
    Returns the previous setting.
    """
    previous = GuideTables.search_window is _SEARCH_WINDOW
    GuideTables.search_window = _SEARCH_WINDOW if enabled else (lambda self, net_name: None)
    return previous


_TARGET_FLOOR = CostModel.target_floor


def set_target_floor_enabled(enabled):
    """Gate the searches' target floors the same way.

    Off, ``CostModel.target_floor`` returns 0.0 for every search, so no
    search stops before its best target pops.  Returns the previous setting.
    """
    previous = CostModel.target_floor is _TARGET_FLOOR
    CostModel.target_floor = _TARGET_FLOOR if enabled else (lambda self, *args, **kwargs: 0.0)
    return previous


#: ``(name, gates forced off, router keyword arguments, needs fork)``.
#: The pure-python leg closes both native gates, so it runs the Python
#: search loop and the Python check scan together.
LEGS = (
    ("native search off", (accel.set_native_enabled,), {}, False),
    ("search window off", (set_search_window_enabled,), {}, False),
    ("target floor off", (set_target_floor_enabled,), {}, False),
    ("native check off", (accel.set_check_native_enabled,), {}, False),
    (
        "pure python",
        (accel.set_native_enabled, accel.set_check_native_enabled),
        {},
        False,
    ),
    (
        "pool x4",
        (),
        {"parallelism": 4, "batch_backend": "pool", "min_fork_batch": 2},
        True,
    ),
)


def _digest(solution):
    return solution_fingerprint(solution), solution_metrics(solution)


def _router(router_cls, design, **kwargs):
    """Build *router_cls* on *design*; the plain router gets the guides the
    colour-aware routers build for themselves."""
    if router_cls is DetailedRouter:
        kwargs["guides"] = GlobalRouter(design).route()
    return router_cls(design, **kwargs)


def _route(router_cls, design, gates, **kwargs):
    previous = [gate(False) for gate in gates]
    try:
        return _digest(_router(router_cls, design, **kwargs).run())
    finally:
        for gate, value in zip(gates, previous):
            gate(value)


def _restored_state(document):
    _design, grid, _solution = checkpoint_from_dict(
        json.loads(json.dumps(document))
    )
    return grid.snapshot_state()


def check_design(name, build):
    """Route ``build()`` on every leg and router; return the mismatches.

    *build* returns a fresh design on each call.  Returns one line per
    mismatch and the number of legs compared.
    """
    mismatches = []
    legs = 0
    for key, router_cls in ROUTERS.items():
        design = build()
        grid = RoutingGrid(design)
        solution = _router(router_cls, design, grid=grid).run()
        reference = _digest(solution)

        for leg, gates, kwargs, needs_fork in LEGS:
            if needs_fork and not HAVE_FORK:
                continue
            legs += 1
            if _route(router_cls, build(), gates, **kwargs) != reference:
                mismatches.append(f"{name} {key}: {leg} differs from serial")

        legs += 1
        restored = _restored_state(checkpoint_to_dict(design, grid, solution))
        if restored != grid.snapshot_state():
            mismatches.append(f"{name} {key}: checkpoint restore differs from the live grid")
    return mismatches, legs


def main():
    failures = 0
    total_legs = 0
    for suite, number in CASES:
        case = suite_case(suite, number, SCALE)
        mismatches, legs = check_design(f"{suite} {case.name}", case.build)
        total_legs += legs
        failures += len(mismatches)
        for line in mismatches:
            print(f"MISMATCH {line}")
        print(f"{suite} {case.name}: {legs} legs, {len(mismatches)} mismatches", flush=True)
    print(f"{total_legs} legs over {len(CASES)} cases, {failures} mismatches")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
