"""Feature extraction against a brute-force partition.

``ConflictChecker._net_features`` groups a route's colored vertices with a
union-find over flat vertex indices, and the incremental conflict checker
extracts dirty nets through the same routine.  Here its output is compared
with an independent partition on the seeded random layouts of
``tests/test_lattice_oracles.py``: a breadth-first search over same-layer,
same-mask route edges keyed by ``GridPoint``, with no union-find.  Beyond
the partition the test pins two orders the full scan's conflict locations
depend on:

* features come in the order their first member appears in
  ``vertex_colors``;
* each feature's vertices iterate like the frozen copy of a ``set`` filled
  by adding the members in ``vertex_colors`` order.

Run longer campaigns with ``--rng-rounds=200`` (the CI nightly job does).
"""

from collections import deque

import pytest

from test_lattice_oracles import random_layout

from repro.check import IncrementalConflictChecker
from repro.geometry import GridPoint
from repro.tpl import ConflictChecker
from repro.utils.rng import SeededRNG


def brute_features(route):
    """Return ``(net, layer, color, vertex set)`` per feature, BFS-partitioned."""
    colored = {
        vertex: color for vertex, color in route.vertex_colors.items() if vertex in route.vertices
    }
    adjacency = {vertex: [] for vertex in colored}
    for a, b in route.edges:
        if a.layer == b.layer and a in colored and b in colored and colored[a] == colored[b]:
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = set()
    features = []
    for start in colored:
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            for neighbor in adjacency[queue.popleft()]:
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        seen |= component
        members = set()
        for vertex in colored:
            if vertex in component:
                members.add(vertex)
        features.append((route.net_name, start.layer, colored[start], frozenset(members)))
    return features


def add_stray_colors(rng, grid, solution):
    """Color a few vertices outside their route: extraction must skip them."""
    for route in solution.routes.values():
        if rng.random() < 0.5:
            vertex = GridPoint(
                rng.randint(0, grid.num_layers - 1),
                rng.randint(0, grid.num_cols - 1),
                rng.randint(0, grid.num_rows - 1),
            )
            if vertex not in route.vertices:
                route.node_colors[route.node_of(vertex)] = rng.randint(0, 2)


@pytest.mark.parametrize("seed", [7, 59])
def test_net_features_match_brute_force_partition(seed, rng_rounds):
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        design, grid, solution = random_layout(rng)
        add_stray_colors(rng, grid, solution)
        checker = ConflictChecker(design, grid)
        incremental = IncrementalConflictChecker(design, grid)
        incremental.refresh(solution)
        for name, route in solution.routes.items():
            context = f"seed {seed}, round {round_number}, net {name}"
            expected = brute_features(route)
            features = checker._net_features(route)
            got = [(f.net_name, f.layer, f.color, f.vertices) for f in features]
            assert got == expected, context
            for feature, (_, _, _, members) in zip(features, expected):
                assert list(feature.vertices) == list(members), context
            # The incremental checker caches the same features, in order.
            cached = [
                (entry.net_name, entry.layer, entry.color,
                 frozenset(map(grid.vertex_of, entry.members)))
                for entry in incremental._features.get(name, ())
            ]
            assert cached == expected, context
        context = f"seed {seed}, round {round_number}"
        assert checker.extract_features(solution) == [
            feature for route in solution.routes.values() for feature in checker._net_features(route)
        ], context
        layers = design.tech.layers
        assert checker.check(solution).uncolored_vertices == sum(
            1
            for route in solution.routed_nets()
            for vertex in route.vertices
            if vertex not in route.vertex_colors and layers[vertex.layer].tpl
        ), context
