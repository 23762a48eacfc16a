"""Incremental checking: dirty-region tracking + delta DRC/conflict tallies.

Every rip-up-and-reroute iteration touches a handful of nets but the
full-scan checkers (:class:`repro.dr.drc.DRCChecker`,
:class:`repro.tpl.conflict.ConflictChecker`) re-walk the whole solution.
This package re-validates only the changed neighbourhood:

* :class:`DirtyRegionTracker` drains the grid's per-net occupancy/color
  delta hooks into dirty-net and dirty-flat-index sets,
* :class:`IncrementalDRCChecker` / :class:`IncrementalConflictChecker`
  maintain running violation and conflict tallies that match the full-scan
  oracles on counts, kinds and net pairs (differentially tested after
  every mutation in ``tests/test_incremental_check.py``; representative
  violation locations may be anchored differently).

The check steps of all three routers (plain detailed router, Mr.TPL,
DAC-2012 baseline) consume these tallies; the full checkers remain the
frozen reference used by final evaluation and the differential harness.
"""

from repro.check.dirty import DirtyRegionTracker
from repro.check.incremental_conflict import IncrementalConflictChecker
from repro.check.incremental_drc import IncrementalDRCChecker

__all__ = [
    "DirtyRegionTracker",
    "IncrementalConflictChecker",
    "IncrementalDRCChecker",
]
