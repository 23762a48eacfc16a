"""Incremental checking: DRC/conflict tallies re-validated per changed net.

Every rip-up-and-reroute iteration touches a handful of nets but the
full-scan checkers (:class:`repro.dr.drc.DRCChecker`,
:class:`repro.tpl.conflict.ConflictChecker`) re-walk the whole solution.
:class:`IncrementalDRCChecker` / :class:`IncrementalConflictChecker`
re-validate only the nets whose route changed since their previous
refresh -- read from the :class:`~repro.grid.RoutingSolution` alone,
through the routes' ``revision`` stamps -- and maintain running violation
and conflict tallies that match the full-scan oracles on counts, kinds and
net pairs (differentially tested after every mutation in
``tests/test_incremental_check.py``; representative violation locations
may be anchored differently).  The grid supplies only static geometry.

The check steps of all three routers (plain detailed router, Mr.TPL,
DAC-2012 baseline) consume these tallies; the full checkers remain the
frozen reference used by final evaluation and the differential harness.
"""

from repro.check.incremental_conflict import IncrementalConflictChecker
from repro.check.incremental_drc import IncrementalDRCChecker

__all__ = [
    "IncrementalConflictChecker",
    "IncrementalDRCChecker",
]
