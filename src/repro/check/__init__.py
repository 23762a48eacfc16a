"""Incremental checking for the rip-up loop's check steps.

The full-scan checkers (:class:`repro.dr.drc.DRCChecker`,
:class:`repro.tpl.conflict.ConflictChecker`) re-walk the whole solution.
The two checkers here re-read only the nets whose route changed since
their previous refresh -- from the :class:`~repro.grid.RoutingSolution`
alone, through the routes' ``revision`` stamps -- and keep exactly what a
loop reads:

* :class:`IncrementalDRCChecker` keeps the shorted nets, the only fact the
  plain router's check step reads;
* :class:`IncrementalConflictChecker` keeps the colour-conflict report of
  the Mr.TPL and DAC-2012 check steps.  It shares the full scan's
  :class:`~repro.tpl.conflict.Feature` record and its classify and anchor
  routines, so it matches the full scan on counts, kinds and net pairs.

``tests/test_incremental_check.py`` compares both with the full scans
after every mutation; final evaluation always uses the full scans.
"""

from repro.check.incremental_conflict import IncrementalConflictChecker
from repro.check.incremental_drc import IncrementalDRCChecker

__all__ = [
    "IncrementalConflictChecker",
    "IncrementalDRCChecker",
]
