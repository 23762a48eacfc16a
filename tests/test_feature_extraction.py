"""Feature extraction against a brute-force partition.

``ConflictChecker._net_features`` groups a route's colored vertices with a
union-find over flat vertex indices into :class:`~repro.tpl.conflict.Feature`
records, and the incremental conflict checker caches the very same
records.  Here the output is compared with an independent partition on the
seeded random layouts of ``tests/test_lattice_oracles.py``: a
breadth-first search over same-layer, same-mask route edges keyed by
``GridPoint``, with no union-find.  Beyond the partition the test pins the
record's fields:

* features come in the order their first member appears in
  ``vertex_colors``, and so do each feature's ``members``;
* ``indices`` are the members sorted, ``cols`` / ``rows`` their track
  coordinates in that order, and ``box`` their bounds.

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
    """Return ``(net, layer, color, members)`` per feature, BFS-partitioned.

    Members are listed in ``vertex_colors`` order.
    """
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
        members = [vertex for vertex in colored if vertex in component]
        features.append((route.net_name, start.layer, colored[start], members))
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
            features = checker._net_features(route)
            got = [
                (f.net_name, f.layer, f.color, [grid.vertex_of(index) for index in f.members])
                for f in features
            ]
            assert got == brute_features(route), context
            for feature in features:
                assert list(feature.indices) == sorted(feature.members), context
                vertices = [grid.vertex_of(index) for index in feature.indices]
                assert feature.cols == tuple(vertex.col for vertex in vertices), context
                assert feature.rows == tuple(vertex.row for vertex in vertices), context
                assert feature.box == (
                    min(feature.cols), max(feature.cols), min(feature.rows), max(feature.rows)
                ), context
            # The incremental checker caches the same records, in order.
            assert incremental._features.get(name, []) == features, context
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
