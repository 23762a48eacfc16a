"""The shared rip-up campaign leaves the grid in agreement with its solution.

Every router runs the :class:`~repro.campaign.CampaignRouter` loop, which
keeps the best iteration and, when it restores one, restores the grid
together with the routes.  After ``run()`` the grid must therefore hold
exactly the solution's metal:

* every vertex of a routed net's route is occupied by that net;
* every occupancy on the grid belongs to the occupying net's route;
* a vertex with a single owner carries exactly the mask colour its owner's
  route assigns there (none where the route assigns none).

Whether keep-best fires depends on the hash seed until conflict-pair
orientation is made seed-independent, so CI also runs this file under
pinned ``PYTHONHASHSEED`` values.
"""

import copy

import pytest

from repro.baselines.dac2012 import Dac2012Router
from repro.bench.micro import fig1_dense_cluster
from repro.bench.suites import suite_case
from repro.dr.router import DetailedRouter
from repro.grid import NetRoute
from repro.tpl.mr_tpl import MrTPLRouter


def grid_solution_mismatches(grid, solution):
    """Return every ``(kind, net, vertex)`` where grid and solution disagree."""
    mismatches = []
    for route in solution.routed_nets():
        for vertex in route.vertices:
            if route.net_name not in grid.occupants(vertex):
                mismatches.append(("unoccupied", route.net_name, vertex))
    for vertex, names in grid.occupied_vertices().items():
        for name in names:
            route = solution.routes.get(name)
            if route is None or vertex not in route.vertices:
                mismatches.append(("unowned", name, vertex))
            elif len(names) == 1:
                color = grid.vertex_color_index(grid.index_of(vertex))
                if color != route.vertex_colors.get(vertex):
                    mismatches.append(("colour", name, vertex))
    return mismatches


@pytest.mark.parametrize(
    "router_cls, suite, number",
    [
        (DetailedRouter, "ispd19", 2),
        (MrTPLRouter, "ispd19", 2),
        (Dac2012Router, "ispd19", 2),
        (Dac2012Router, "ispd18", 2),
    ],
    ids=["plain-ispd19_test2", "mrtpl-ispd19_test2", "dac2012-ispd19_test2", "dac2012-ispd18_test2"],
)
def test_grid_matches_solution_after_run(router_cls, suite, number):
    router = router_cls(suite_case(suite, number, scale=0.5).build())
    solution = router.run()
    assert solution.routed_nets()
    assert grid_solution_mismatches(router.grid, solution) == []


def routed_once():
    router = MrTPLRouter(fig1_dense_cluster(), use_global_router=False, max_iterations=0)
    return router, router.run()


def test_restore_skips_routes_equal_in_content():
    # A resumed campaign rebuilds its routes from the checkpoint: equal
    # content, new objects.  Restoring them must not touch the grid.
    router, solution = routed_once()
    before = router.grid.snapshot_state()
    released = []
    release = router.grid.release_net
    router.grid.release_net = lambda name: released.append(name) or release(name)
    router._restore(solution, copy.deepcopy(solution.routes))
    assert router.grid.snapshot_state() == before
    assert released == []


def test_restore_releases_every_net_before_recommitting():
    # The best route of `first` takes a vertex from `last`'s final route,
    # where a third net also has metal.  Were `last` released after
    # `first` is re-committed, the release would leave two owners there
    # and wipe the mask colour `first` just put there.
    router, solution = routed_once()
    first, last = min(solution.routes), max(solution.routes)
    vertex, color = next(iter(solution.routes[last].vertex_colors.items()))
    color = (color + 1) % 3
    router.grid.occupy(vertex, "third")
    best = dict(solution.routes)
    best[first] = NetRoute(first, router.grid.route_dims)
    best[first].set_color(vertex, color)
    best[last] = NetRoute(last, router.grid.route_dims, routed=False)
    router._restore(solution, best)
    assert router.grid.occupants(vertex) == {first, "third"}
    assert router.grid.vertex_color_index(router.grid.index_of(vertex)) == color
    assert solution.routes[first] is best[first]
    router.grid.release_net("third")
    assert grid_solution_mismatches(router.grid, solution) == []
