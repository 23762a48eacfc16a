"""``NetRoute`` on flat vertex indices: its ``GridPoint`` views and encodings.

A route stores flat vertex indices; ``vertices``, ``edges`` and
``vertex_colors`` are read-only ``GridPoint`` views built per call.  Here
random paths are built both through the index storage and, independently,
into the ``GridPoint`` sets and dict a route used to keep, and the views
must equal them: vertices, edge orientation (``a < b``) and colours in
insertion order.  A pickled route must round-trip (the pool ships routes
between processes), and ``route_to_dict`` must keep the encoding of
checkpoints written before the index storage, so they still load.

Run longer campaigns with ``--rng-rounds=200``.
"""

import hashlib
import json
import pickle

import pytest

from repro.baselines import Dac2012Router
from repro.bench import suite_case
from repro.geometry import GridPoint
from repro.grid import NetRoute, Stitch
from repro.io.json_io import route_from_dict, route_to_dict
from repro.utils import SeededRNG

STEPS = ((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0))


def random_route(rng):
    """Return ``(route, vertices, edges, colors)`` built both ways from random walks."""
    dims = (rng.randint(2, 9), rng.randint(2, 9))
    layers = rng.randint(1, 3)
    route = NetRoute("n", dims)
    vertices, edges, colors = set(), set(), {}
    for _ in range(rng.randint(1, 4)):
        vertex = GridPoint(
            rng.randint(0, layers - 1), rng.randint(0, dims[0] - 1), rng.randint(0, dims[1] - 1)
        )
        path = [vertex]
        for _ in range(rng.randint(0, 12)):
            dlayer, dcol, drow = rng.choice(STEPS)
            step = GridPoint(vertex.layer + dlayer, vertex.col + dcol, vertex.row + drow)
            if 0 <= step.layer < layers and 0 <= step.col < dims[0] and 0 <= step.row < dims[1]:
                vertex = step
                path.append(vertex)
        route.add_node_path([route.node_of(v) for v in path])
        vertices.update(path)
        for a, b in zip(path, path[1:]):
            if a != b:
                edges.add((a, b) if a < b else (b, a))
    order = sorted(vertices)
    rng.shuffle(order)
    for vertex in order:
        if rng.random() < 0.7:
            color = rng.randint(0, 2)
            route.set_node_color(route.node_of(vertex), color)
            colors[vertex] = color
    # Recolour a few, which keeps their first insertion position.
    for vertex in list(colors)[: rng.randint(0, 2)]:
        colors[vertex] = (colors[vertex] + 1) % 3
        route.set_color(vertex, colors[vertex])
    return route, vertices, edges, colors


@pytest.mark.parametrize("seed", [3, 29])
def test_views_equal_the_gridpoint_built_route(seed, rng_rounds):
    rng = SeededRNG(seed)
    for round_number in range(rng_rounds):
        route, vertices, edges, colors = random_route(rng)
        context = f"seed {seed}, round {round_number}"
        assert route.vertices == vertices, context
        assert route.edges == edges, context
        assert all(a < b for a, b in route.edges), context
        assert list(route.vertex_colors.items()) == list(colors.items()), context
        assert route.wirelength() == sum(1 for a, b in edges if a.layer == b.layer), context
        assert route.via_count() == sum(1 for a, b in edges if a.layer != b.layer), context
        assert route.stitches == {
            Stitch("n", a, b)
            for a, b in edges
            if a.layer == b.layer and a in colors and b in colors and colors[a] != colors[b]
        }, context
        for vertex in vertices:
            assert route.vertex_at(route.node_of(vertex)) == vertex, context


def test_views_are_read_only():
    route, _vertices, _edges, _colors = random_route(SeededRNG(5))
    with pytest.raises(AttributeError):
        route.vertices.add(GridPoint(0, 0, 0))
    with pytest.raises(TypeError):
        route.vertex_colors[GridPoint(0, 0, 0)] = 1


def test_pickled_route_round_trips():
    rng = SeededRNG(11)
    for _ in range(20):
        route, _vertices, _edges, _colors = random_route(rng)
        route.routed = rng.random() < 0.5
        clone = pickle.loads(pickle.dumps(route))
        assert clone == route
        assert list(clone.node_colors.items()) == list(route.node_colors.items())
        assert clone.revision != route.revision  # a shipped route reads as replaced


#: sha256 of ``json.dumps(route_to_dict(route))`` for net_2 of ispd19 test2
#: (scale 0.5, DAC-2012 initial pass: 14 vertices, 13 edges, 2 stitches),
#: recorded while routes still stored ``GridPoint`` sets.
ROUTE_DICT_SHA256 = "f841bd8b444082509df06a75dda189b705fb4c572e4dcd39e821317de7723934"


def test_route_to_dict_keeps_the_checkpoint_encoding():
    router = Dac2012Router(suite_case("ispd19", 2, scale=0.5).build(), max_iterations=0)
    solution = router.run()
    route = solution.routes["net_2"]
    document = route_to_dict(route)
    assert len(document["stitches"]) == 2
    assert hashlib.sha256(json.dumps(document).encode()).hexdigest() == ROUTE_DICT_SHA256
    rebuilt = route_from_dict(json.loads(json.dumps(document)), router.grid.route_dims)
    assert rebuilt == route
    # The stitches are written, not read back: the rebuilt route derives
    # the same ones from its colours.
    assert rebuilt.stitches == route.stitches
    assert route_to_dict(rebuilt) == document
