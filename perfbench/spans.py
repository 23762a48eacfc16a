"""Span tracing of the router's layers, installed from the benchmark's side.

:func:`install` replaces public entry points of each layer with thin
wrappers (class attributes, so every instance created afterwards is
traced) and returns a function that puts the originals back.  A wrapper
opens a span named after its layer, closes it when the call returns and
charges the elapsed time to the enclosing span as child time, so a
layer's *self* time is its span minus its child spans.  A call made while
a span of the same layer is innermost opens no new span: the ``*_flat``
cost builders call their list twins, and that work counts once.

Spans are aggregated in memory per (parent, name) edge -- total time,
self time and calls -- plus the per-layer work counters; nothing is
written until the benchmark prints its report.  Pool workers forked from
a traced process inherit the wrappers, but their spans die with them:
worker-side search shows up as ``sched.ipc_s`` in the parent.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.sched.commit
import repro.sched.executor
from repro.baselines import LayoutDecomposer
from repro.baselines.dac2012 import MaskExpandedSearch
from repro.bench import synthetic
from repro.check import IncrementalConflictChecker, IncrementalDRCChecker
from repro.dr.cost import CostModel
from repro.dr.drc import DRCChecker
from repro.dr.maze import MazeRouter, SearchResult
from repro.gr import GlobalRouter
from repro.grid import RoutingGrid
from repro.sched.commit import GridSink
from repro.sched.executor import BatchExecutor
from repro.search.core import SearchCore
from repro.tpl.backtrace import Backtracer
from repro.tpl.conflict import ConflictChecker
from repro.tpl.search import ColorStateSearch

#: Counter callbacks: ``(args, result) -> {counter: increment}``.
Count = Callable[[tuple, object], Dict[str, int]]


def _per_call(counter: str) -> Count:
    return lambda args, result: {counter: 1}


def _kernel_work(args, result) -> Dict[str, int]:
    return {"search.calls": 1, "search.expansions": result.expansions}


def _replayed_ops(args, result) -> Dict[str, int]:
    return {"grid.commit_ops": len(args[1])}


def _refresh_work(args, result) -> Dict[str, int]:
    return {"check.refreshes": 1, "check.nets_revalidated": len(result)}


_COST_TABLES = (
    "base_cost_table",
    "guide_penalty_table",
    "congestion_snapshot",
    "color_pressure_snapshot",
    "base_cost_flat",
    "guide_penalty_flat",
    "congestion_snapshot_flat",
    "color_pressure_snapshot_flat",
)

#: (owner, attribute, span name, counter) for every traced entry point.
#: The ``sched`` span wraps the batch executor's whole queue so its self
#: time (plan, IPC, validation) is attributed; its breakdown comes from
#: the executor's own phase record.
TRACE_POINTS: List[Tuple[object, str, str, Optional[Count]]] = [
    (synthetic, "generate_design", "synthetic.generate", None),
    (GlobalRouter, "route", "gr.route", None),
    (RoutingGrid, "__init__", "grid.build", None),
    *[(CostModel, name, "cost.tables", _per_call("cost.tables_calls")) for name in _COST_TABLES],
    (SearchCore, "run", "search.kernel", _kernel_work),
    (ColorStateSearch, "search", "tpl.search", None),
    (Backtracer, "backtrace", "tpl.backtrace", None),
    (MazeRouter, "search", "dr.search", None),
    (SearchResult, "backtrace", "dr.backtrace", None),
    (MaskExpandedSearch, "search", "dac2012.search", None),
    (LayoutDecomposer, "decompose", "decomposer.decompose", None),
    (GridSink, "occupy", "grid.commit", _per_call("grid.commit_ops")),
    (GridSink, "set_color", "grid.commit", _per_call("grid.commit_ops")),
    (repro.sched.commit, "apply_route_ops", "grid.commit", _replayed_ops),
    (repro.sched.executor, "apply_route_ops", "grid.commit", _replayed_ops),
    (RoutingGrid, "release_net", "grid.ripup", _per_call("grid.ripup_ops")),
    (RoutingGrid, "add_history", "grid.ripup", _per_call("grid.ripup_ops")),
    (RoutingGrid, "decay_history", "grid.ripup", _per_call("grid.ripup_ops")),
    (IncrementalConflictChecker, "refresh", "check.refresh", _refresh_work),
    (IncrementalDRCChecker, "refresh", "check.refresh", _refresh_work),
    (ConflictChecker, "check", "eval.conflict_scan", None),
    (DRCChecker, "summary", "eval.drc", None),
    (BatchExecutor, "route_nets", "sched", None),
]

#: Spans whose inclusive time is "engine search time" (kernel share base).
ENGINE_SPANS = ("tpl.search", "dr.search", "dac2012.search")


class Tracer:
    """In-memory span aggregator for one process (not thread-safe)."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self.stack: List[list] = []
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = defaultdict(
            lambda: [0.0, 0.0, 0]
        )
        self.counts: Counter = Counter()

    def wrap(self, name: str, function: Callable, count: Optional[Count]) -> Callable:
        """Return *function* wrapped in a span called *name*."""
        stack = self.stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                self._close(name, elapsed, frame[1])
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def _close(self, name: str, elapsed: float, child_s: float) -> None:
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += elapsed
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child_s
        edge = self.edges[(parent[0] if parent else None, name)]
        edge[0] += elapsed
        edge[1] += elapsed - child_s
        edge[2] += 1

    def attributed_s(self) -> float:
        """Return the summed self time of every span closed so far."""
        return sum(self.self_s.values())

    def engine_search_s(self) -> float:
        """Return the inclusive time of the search-engine spans."""
        return sum(self.total_s.get(name, 0.0) for name in ENGINE_SPANS)

    def tree_lines(self) -> List[str]:
        """Return the span tree, one ``parent > name`` edge per line."""
        lines = []
        for (parent, name), (total, self_time, calls) in sorted(
            self.edges.items(), key=lambda item: -item[1][0]
        ):
            lines.append(
                f"{parent or '<root>'} > {name}: total {total:.4f} s, "
                f"self {self_time:.4f} s, {calls} calls"
            )
        return lines


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every :data:`TRACE_POINTS` entry; return the undo function."""
    originals = []
    for owner, attribute, name, count in TRACE_POINTS:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, count))

    def uninstall() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return uninstall
