"""The conflict refresh's partner scan finds every conflict, with its anchor.

:class:`IncrementalConflictChecker` classifies a dirty net only against the
partners that can conflict with it: nets with metal within the min-spacing
reach, or within the Dcolor reach on the same mask, or sharing a vertex
(:func:`repro.check.kernels.scan_hits`' candidate rule).  It stores only
conflicting pairs.  The reference kept here is the scan it replaced: every
net with metal within the interaction radius ``max(Dcolor, min_spacing)``,
on any mask, is classified, and every classified pair is stored.

A pair's conflicts are anchored on the side of the dirty net that
classifies it first, in the order of the dirty set, so the two checkers
must give the same ``check()`` report conflict by conflict, ``location``
included.  The order of the dirty set follows string hashing, so CI runs
this file under two ``PYTHONHASHSEED`` pins.  The streams are
:class:`MutationDriver`'s (``--rng-rounds`` deep) and full Mr.TPL and
DAC-2012 campaigns.
"""

import pytest

from test_gr import golden_dense_spec
from test_incremental_check import MutationDriver

from repro import accel, baselines, tpl
from repro.baselines import Dac2012Router
from repro.bench import SyntheticSpec, generate_design, suite_case
from repro.check import IncrementalConflictChecker
from repro.tpl import MrTPLRouter
from repro.utils import SeededRNG


class UnfilteredConflictChecker(IncrementalConflictChecker):
    """The checker with its former partner scan: any mask, every pair stored."""

    def _scan_pairs(self, name, classified):
        grid = self.grid
        owner = self._occ_owner
        self_id = self._name_ids.get(name, 0)
        plane, num_rows, num_cols = grid.plane_size, grid.num_rows, grid.num_cols
        candidates = set()
        for feature in self._features.get(name, ()):
            offsets = grid.track_offsets(grid.interaction_radius(layer=feature.layer))
            for index in feature.indices:
                col, row = divmod(index % plane, num_rows)
                for dcol, drow, delta in offsets:
                    if not (0 <= col + dcol < num_cols and 0 <= row + drow < num_rows):
                        continue
                    occupant = owner[index + delta]
                    if occupant > 0 and occupant != self_id:
                        candidates.add(self._id_names[occupant])
                    elif occupant == -1:
                        candidates.update(self._occ[index + delta])
        candidates.discard(name)
        for partner in candidates:
            pair = (name, partner) if name <= partner else (partner, name)
            if pair in self._pair_conflicts:
                continue  # the partner was dirty too and already rescanned
            self._pair_conflicts[pair] = self.oracle._net_pair_conflicts(
                self._features[name], self._features[partner]
            )
            self._pairs_by_net.setdefault(name, set()).add(pair)
            self._pairs_by_net.setdefault(partner, set()).add(pair)


def anchored(report):
    """Return *report*'s conflicts in report order, anchors included."""
    return [
        (c.net_a, c.net_b, c.layer, c.color, c.kind, c.location) for c in report.conflicts
    ], report.uncolored_vertices


# ----------------------------------------------------------------------
# Mutation streams
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 17, 58])
def test_mutation_streams_match_the_unfiltered_scan(seed, rng_rounds):
    driver = MutationDriver(seed)
    reference = UnfilteredConflictChecker(driver.design, driver.grid)
    rng = SeededRNG(seed * 4241)
    history = []
    conflicts = skipped_pairs = 0
    for round_number in range(rng_rounds):
        history.append(driver.mutate(rng))
        del history[:-8]
        context = f"seed {seed}, round {round_number}; recent mutations: {history}"
        got = anchored(driver.inc_conflicts.check(driver.solution))
        assert got == anchored(reference.check(driver.solution)), context
        # The checker keeps exactly the reference's conflicting pairs.
        conflicting = {pair for pair, found in reference._pair_conflicts.items() if found}
        assert set(driver.inc_conflicts._pair_conflicts) == conflicting, context
        conflicts += len(got[0])
        skipped_pairs += len(reference._pair_conflicts) - len(conflicting)
    assert conflicts > 0 and skipped_pairs > 0


# ----------------------------------------------------------------------
# Full campaigns
# ----------------------------------------------------------------------

class PairedChecker(IncrementalConflictChecker):
    """A campaign's checker that holds every report to the unfiltered scan's."""

    reports = []

    def __init__(self, design, grid):
        super().__init__(design, grid)
        self.reference = UnfilteredConflictChecker(design, grid)

    def check(self, solution):
        report = super().check(solution)
        assert anchored(report) == anchored(self.reference.check(solution))
        PairedChecker.reports.append(len(report.conflicts))
        return report


DESIGNS = {
    # perfbench's dense design; its DAC-2012 campaign takes about 20 s on
    # the Python search tier, so it runs where the native search is active.
    "dense": lambda: generate_design(golden_dense_spec(1910)),
    "ispd19-test2": lambda: suite_case("ispd19", 2).build(),
    "small": lambda: generate_design(
        SyntheticSpec(
            name="partner-flow", seed=11, cols=16, rows=16, num_layers=3, num_nets=8,
            color_spacing=10, net_radius=8, obstacle_count=2,
            colored_obstacle_fraction=0.5,
        )
    ),
}
ROUTERS = {
    "mr-tpl": (tpl.mr_tpl, MrTPLRouter),
    "dac2012": (baselines.dac2012, Dac2012Router),
}


@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("design_key", sorted(DESIGNS))
def test_campaigns_match_the_unfiltered_scan(design_key, router_key, monkeypatch):
    if design_key == "dense" and accel.active_search_tier() != "native":
        pytest.skip("the dense campaigns need the native search tier")
    module, router_class = ROUTERS[router_key]
    monkeypatch.setattr(module, "IncrementalConflictChecker", PairedChecker)
    monkeypatch.setattr(PairedChecker, "reports", [])
    router = router_class(DESIGNS[design_key](), use_global_router=False)
    assert isinstance(router.incremental_conflicts, PairedChecker)
    router.run()
    # Every rip-up round and the final check were compared, with conflicts
    # to compare.
    assert len(PairedChecker.reports) >= 2
    assert sum(PairedChecker.reports) > 0
