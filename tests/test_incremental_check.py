"""Differential harness: incremental checkers vs the full-scan oracles.

Randomized route / rip-up / reroute / recolor sequences (seeded through
:class:`repro.utils.SeededRNG`) drive a shared grid + solution, and after
*every* mutation the incremental tallies are compared against a fresh
full scan by the reference checkers: the shorted nets must equal the nets
of :class:`DRCChecker`'s shorts, and the conflicts must match on counts,
kinds and net pairs.

Run longer campaigns with ``pytest tests/test_incremental_check.py
--rng-rounds=200`` (the CI nightly job does).
"""

import pytest

from repro.bench import SyntheticSpec, generate_design
from repro.check import IncrementalConflictChecker, IncrementalDRCChecker
from repro.design import Design
from repro.dr import DetailedRouter, DRCChecker
from repro.geometry import GridPoint, Rect
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.tech import make_default_tech
from repro.tpl import ConflictChecker, MrTPLRouter
from repro.utils import SeededRNG


# ----------------------------------------------------------------------
# Digests: the comparable projection of a report
# ----------------------------------------------------------------------

def shorted_nets(drc, solution):
    """Return the nets of the full-scan *drc* checker's shorts in *solution*."""
    return {net for violation in drc.find_shorts(solution) for net in violation.nets}


def refreshed_shorted_nets(inc_drc, solution):
    """Refresh *inc_drc* against *solution* and return its shorted nets."""
    inc_drc.refresh(solution)
    return inc_drc.shorted_nets()


def conflict_digest(report):
    """Return the order-independent digest of a conflict report."""
    conflicts = sorted(
        (
            conflict.kind,
            tuple(sorted((conflict.net_a, conflict.net_b))),
            conflict.layer,
            conflict.color if conflict.kind == "same-mask" else -1,
        )
        for conflict in report.conflicts
    )
    return conflicts, report.uncolored_vertices


def assert_matches_oracle(driver):
    """Assert the incremental tallies equal a fresh full scan."""
    assert refreshed_shorted_nets(driver.inc_drc, driver.solution) == shorted_nets(
        driver.full_drc, driver.solution
    )
    assert conflict_digest(driver.inc_conflicts.check(driver.solution)) == (
        conflict_digest(driver.full_conflicts.check(driver.solution))
    )


# ----------------------------------------------------------------------
# Mutation driver
# ----------------------------------------------------------------------

class MutationDriver:
    """Applies randomized routing mutations to one shared grid + solution."""

    def __init__(self, seed, num_nets=8, cols=14, rows=14, min_spacing=6):
        spec = SyntheticSpec(
            name=f"inc-check-{seed}",
            seed=seed,
            cols=cols,
            rows=rows,
            num_layers=3,
            num_nets=num_nets,
            color_spacing=10,
            net_radius=8,
            obstacle_count=2,
            colored_obstacle_fraction=0.5,
        )
        self.design = generate_design(spec)
        # Widen the hard spacing so neighbouring tracks violate it: the
        # TPL-unaware maze router then produces real min-spacing conflicts
        # for the differential comparison to chew on.
        self.design.tech.rules.min_spacing = min_spacing
        self.grid = RoutingGrid(self.design)
        self.tpl_router = MrTPLRouter(
            self.design, grid=self.grid, use_global_router=False, max_iterations=0
        )
        self.plain_router = DetailedRouter(self.design, grid=self.grid, max_iterations=0)
        self.solution = RoutingSolution(design_name=self.design.name, router_name="harness")
        self.net_names = [net.name for net in self.design.routable_nets()]

        self.inc_drc = IncrementalDRCChecker()
        self.inc_conflicts = IncrementalConflictChecker(self.design, self.grid)
        self.full_drc = DRCChecker(self.design, self.grid)
        self.full_conflicts = ConflictChecker(self.design, self.grid)

    def mutate(self, rng):
        """Apply one random mutation; return a description for failure output."""
        routed = sorted(self.solution.routes)
        unrouted = [name for name in self.net_names if name not in self.solution.routes]
        roll = rng.random()
        if unrouted and (roll < 0.45 or not routed):
            return self._route(rng.choice(unrouted), rng)
        if roll < 0.65 and routed:
            return self._rip_up(rng.choice(routed))
        if roll < 0.85 and routed:
            name = rng.choice(routed)
            description = self._rip_up(name)
            return description + "; " + self._route(name, rng)
        if routed:
            return self._recolor(rng.choice(routed), rng)
        return self._route(rng.choice(unrouted), rng)

    def _route(self, name, rng):
        net = self.design.net_by_name(name)
        router = self.tpl_router if rng.random() < 0.7 else self.plain_router
        self.solution.add_route(router.route_net(net))
        return f"route {name} via {router.name}"

    def _rip_up(self, name):
        self.grid.release_net(name)
        route = self.solution.routes.pop(name)
        for vertex in route.vertices:
            self.grid.add_history(vertex, 0.25)
        return f"ripup {name}"

    def _recolor(self, name, rng):
        route = self.solution.routes[name]
        colored = sorted(route.vertex_colors)
        if not colored:
            return f"recolor {name} (no colors)"
        vertex = rng.choice(colored)
        color = (route.vertex_colors[vertex] + rng.randint(1, 2)) % 3
        route.set_color(vertex, color)
        self.grid.set_vertex_color(vertex, name, color)
        return f"recolor {name} {vertex} -> {color}"


# ----------------------------------------------------------------------
# The differential tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 17, 58])
def test_randomized_mutations_match_full_scan(seed, rng_rounds):
    driver = MutationDriver(seed)
    rng = SeededRNG(seed * 7919)
    assert_matches_oracle(driver)  # empty solution: nothing to report
    history = []
    for round_number in range(rng_rounds):
        history.append(driver.mutate(rng))
        if len(history) > 8:
            history.pop(0)
        try:
            assert_matches_oracle(driver)
        except AssertionError:
            raise AssertionError(
                f"seed {seed} diverged at round {round_number}; "
                f"recent mutations: {history}"
            )


def test_full_router_flows_match_full_scan():
    """After complete router runs the incremental tallies still equal a re-scan."""
    spec = SyntheticSpec(
        name="inc-flow", seed=11, cols=16, rows=16, num_layers=3, num_nets=8,
        color_spacing=10, net_radius=8, obstacle_count=2,
        colored_obstacle_fraction=0.5,
    )
    design = generate_design(spec)
    grid = RoutingGrid(design)
    inc_drc = IncrementalDRCChecker()
    inc_conflicts = IncrementalConflictChecker(design, grid)
    solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
    assert refreshed_shorted_nets(inc_drc, solution) == shorted_nets(
        DRCChecker(design, grid), solution
    )
    assert conflict_digest(inc_conflicts.check(solution)) == conflict_digest(
        ConflictChecker(design, grid).check(solution)
    )


def test_grid_reset_forces_rebuild():
    driver = MutationDriver(seed=5, num_nets=4)
    rng = SeededRNG(99)
    for _ in range(4):
        driver.mutate(rng)
    assert_matches_oracle(driver)
    driver.grid.reset_routing_state()
    driver.solution.routes.clear()
    assert_matches_oracle(driver)


# ----------------------------------------------------------------------
# The dirty set comes from the solution alone
# ----------------------------------------------------------------------

def routed_driver(seed):
    """Return a driver with four Mr.TPL routes in its solution, checkers refreshed."""
    driver = MutationDriver(seed=seed, num_nets=5)
    for name in driver.net_names[:4]:
        net = driver.design.net_by_name(name)
        driver.solution.add_route(driver.tpl_router.route_net(net))
    assert_matches_oracle(driver)
    return driver


def test_grid_only_mutations_leave_dirty_set_empty():
    driver = routed_driver(seed=9)
    grid, solution = driver.grid, driver.solution
    routed = sorted(solution.routes)
    assert routed
    vertex = next(iter(solution.routes[routed[0]].vertices))
    ghost = next(name for name in driver.net_names if name not in solution.routes)
    grid.occupy(vertex, ghost)
    grid.set_vertex_color(vertex, ghost, 1)
    mutations = [
        lambda: grid.add_history(vertex, 2.0),
        lambda: grid.decay_history(),
        lambda: grid.release_net(ghost),
        lambda: grid.reset_routing_state(),
    ]
    for mutate in mutations:
        mutate()
        assert driver.inc_drc.refresh(solution) == set()
        assert driver.inc_conflicts.refresh(solution) == set()
    assert_matches_oracle(driver)


def test_in_place_set_color_is_revalidated():
    driver = routed_driver(seed=21)
    name = next(
        name for name, route in sorted(driver.solution.routes.items()) if route.vertex_colors
    )
    route = driver.solution.routes[name]
    vertex = sorted(route.vertex_colors)[0]
    # Recolour the route object only: the grid never hears of it.
    route.set_color(vertex, (route.vertex_colors[vertex] + 1) % 3)
    assert driver.inc_drc.refresh(driver.solution) == {name}
    assert driver.inc_conflicts.refresh(driver.solution) == {name}
    assert_matches_oracle(driver)


def test_conflict_anchor_is_first_vertex_touching_partner_box():
    """The anchor is the smallest vertex nearest the partner's track box,
    and the first one inside or touching that box wins, in the loop's
    checker and in the full scan alike."""
    tech = make_default_tech(num_layers=3)
    design = Design(name="anchor", tech=tech, die_area=Rect(0, 0, 48, 48))
    grid = RoutingGrid(design)
    solution = RoutingSolution(design_name="anchor")
    # "a" runs along row 5; "b" hooks around it with a box spanning cols
    # 2-8 and rows 4-7, so a's vertices at cols 2..6 all lie inside the box.
    # "b" is added first, so the refresh that adds "a" classifies (a, b)
    # and anchors on a's vertices whatever the set order.
    paths = {
        "b": [GridPoint(0, col, 4) for col in range(2, 9)]
        + [GridPoint(0, 8, row) for row in range(5, 8)],
        "a": [GridPoint(0, col, 5) for col in range(7)],
    }
    checker = IncrementalConflictChecker(design, grid)
    for name, path in paths.items():
        route = NetRoute(name, grid.route_dims)
        route.add_path(path)
        for vertex in route.vertices:
            route.set_color(vertex, 0)
        solution.add_route(route)
        report = checker.check(solution)
    # The full scan anchors each pair on its lower-id feature, so it reads
    # the same routes with "a" first.
    ordered = RoutingSolution(design_name="anchor")
    for name in ("a", "b"):
        ordered.add_route(solution.routes[name])
    reports = [report, ConflictChecker(design, grid).check(ordered)]
    for found in reports:
        assert [(c.net_a, c.net_b, c.kind, c.location) for c in found.conflicts] == [
            ("a", "b", "same-mask", GridPoint(0, 2, 5))
        ]
