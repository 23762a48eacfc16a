"""Lightweight wall-clock phase accounting for routing campaigns.

Every rip-up-and-reroute iteration decomposes into a fixed set of phases:

``plan``
    Disjoint-batch planning (``BatchScheduler.plan``).
``search``
    Pathfinding proper: serial batch routing and live-reroute fallbacks
    (pool workers' search shows up as ``ipc`` in the parent).
``commit``
    Applying speculative results to the authoritative grid
    (``_commit_batch``).
``check``
    Incremental DRC / conflict re-validation in the routers' loops.
``ipc``
    Pool-backend traffic: suffix shipping and result receive.
``checkpoint``
    Grid snapshot and checkpoint serialisation.

:class:`PhaseTimes` is the per-owner record (one per batch executor /
router).  The timers are plain ``perf_counter`` differences added from
the call sites -- no tracing, no callbacks -- so the accounting overhead
is one float add per timed region and the records are JSON-clean.

Attribution is non-overlapping by construction: the call sites time
leaf regions only (a pool batch's wall time is ``ipc``, not ``search``;
the serial fallback inside a failed parallel batch is ``search``).
"""

from __future__ import annotations

from typing import Dict, Optional

#: Canonical phase names, in display order.
PHASE_NAMES = ("plan", "search", "commit", "check", "ipc", "checkpoint")


class PhaseTimes:
    """Accumulated wall-clock seconds per campaign phase."""

    __slots__ = ("_seconds",)

    def __init__(self, seconds: Optional[Dict[str, float]] = None) -> None:
        self._seconds: Dict[str, float] = {name: 0.0 for name in PHASE_NAMES}
        if seconds:
            for name, value in seconds.items():
                if name in self._seconds:
                    self._seconds[name] = float(value)

    def add(self, phase: str, seconds: float) -> None:
        """Charge *seconds* to *phase*."""
        self._seconds[phase] += seconds

    def as_dict(self) -> Dict[str, float]:
        """Return a JSON-clean copy (every phase present, in display order)."""
        return dict(self._seconds)

    def total(self) -> float:
        """Return the summed accounted seconds."""
        return sum(self._seconds.values())

    def merge(self, other: Dict[str, float]) -> None:
        """Add another record's seconds phase-by-phase."""
        for name, value in other.items():
            if name in self._seconds:
                self._seconds[name] += float(value)
