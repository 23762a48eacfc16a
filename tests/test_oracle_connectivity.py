"""Open-net connectivity and out-of-guide counts against per-point references.

``DRCChecker.route_connects_all`` joins a route's metal with a union-find
over flat vertex indices, and ``DRCChecker.route_out_of_guide`` reads the
same flat guide tables the search charges its penalty from
(:class:`repro.gr.guide.GuideTables`).  Both are compared here with
``GridPoint`` references on the seeded random layouts of
``tests/test_lattice_oracles.py``:

* connectivity against a breadth-first search over the route's edges plus
  the links between each pin's access vertices, on routes that are often
  disconnected and pins with several access vertices, some off the route;
* the out-of-guide count against one
  ``guides.covers_point(net, layer, grid.physical_point(v))`` query per
  vertex, with guided, unguided and empty-guide nets and vertices outside
  every guide.

Run longer campaigns with ``--rng-rounds=200`` (the CI nightly job does).
"""

from collections import deque

import pytest

from test_lattice_oracles import random_layout

from repro.dr import DRCChecker
from repro.geometry import GridPoint
from repro.gr.guide import GuideSet, RouteGuide
from repro.grid import GCellGrid
from repro.grid.gcell import GCell
from repro.utils.rng import SeededRNG


def random_vertex(rng, grid):
    return GridPoint(
        rng.randint(0, grid.num_layers - 1),
        rng.randint(0, grid.num_cols - 1),
        rng.randint(0, grid.num_rows - 1),
    )


def random_pin_groups(rng, grid, route):
    """Return 1-4 pins of 1-3 access vertices, mostly on the route."""
    on_route = sorted(route.vertices)
    groups = []
    for _ in range(rng.randint(1, 4)):
        group = []
        for _ in range(rng.randint(1, 3)):
            if on_route and rng.random() < 0.8:
                group.append(rng.choice(on_route))
            else:
                group.append(random_vertex(rng, grid))
        groups.append(group)
    return groups


def brute_connects_all(route, groups):
    """BFS over the route's edges and each pin's access-vertex links."""
    adjacency = {vertex: set() for vertex in route.vertices}
    for a, b in route.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    anchors = []
    for group in groups:
        touched = [vertex for vertex in group if vertex in route.vertices]
        if not touched:
            return False
        for vertex in touched[1:]:
            adjacency[touched[0]].add(vertex)
            adjacency[vertex].add(touched[0])
        anchors.append(touched[0])
    reached = {anchors[0]}
    queue = deque([anchors[0]])
    while queue:
        for neighbor in adjacency[queue.popleft()]:
            if neighbor not in reached:
                reached.add(neighbor)
                queue.append(neighbor)
    return all(anchor in reached for anchor in anchors)


def random_guides(rng, design, solution):
    """Guide most nets with random gcells; leave some unguided or empty."""
    gcells = GCellGrid(design, gcell_size=rng.choice((5, 8, 13)))
    guides = GuideSet(gcells)
    for name in sorted(solution.routes):
        roll = rng.random()
        if roll < 0.2:
            continue  # unguided: every vertex is in-guide
        guide = RouteGuide(name)
        if roll >= 0.3:
            for _ in range(rng.randint(1, 8)):
                guide.add_cell(
                    GCell(
                        rng.randint(0, gcells.num_layers - 1),
                        rng.randint(0, gcells.num_gx - 1),
                        rng.randint(0, gcells.num_gy - 1),
                    )
                )
        guides.add(guide)
    return guides


@pytest.mark.parametrize("seed", [13, 71])
def test_connectivity_matches_bfs(seed, rng_rounds):
    rng = SeededRNG(seed)
    outcomes = {True: 0, False: 0}
    for round_number in range(rng_rounds):
        design, grid, solution = random_layout(rng)
        drc = DRCChecker(design, grid)
        for name, route in solution.routes.items():
            groups = random_pin_groups(rng, grid, route)
            expected = brute_connects_all(route, groups)
            assert drc.route_connects_all(route, groups) == expected, (
                f"seed {seed}, round {round_number}, net {name}, pins {groups}"
            )
            outcomes[expected] += 1
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("seed", [17, 83])
def test_out_of_guide_matches_point_queries(seed, rng_rounds):
    rng = SeededRNG(seed)
    outside_total = inside_total = 0
    for round_number in range(rng_rounds):
        design, grid, solution = random_layout(rng)
        guides = random_guides(rng, design, solution)
        drc = DRCChecker(design, grid, guides)
        for name, route in solution.routes.items():
            outside = sum(
                1
                for vertex in route.vertices
                if not guides.covers_point(name, vertex.layer, grid.physical_point(vertex))
            )
            assert drc.route_out_of_guide(route) == outside, (
                f"seed {seed}, round {round_number}, net {name}"
            )
            outside_total += outside
            inside_total += len(route.vertices) - outside
        assert drc.out_of_guide_vertices(solution) == sum(
            drc.route_out_of_guide(route) for route in solution.routed_nets()
        )
        assert DRCChecker(design, grid).out_of_guide_vertices(solution) == 0
    assert outside_total and inside_total
