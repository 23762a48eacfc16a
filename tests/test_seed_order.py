"""The seed order of the searches that grow a net tree.

The kernel breaks cost ties by push order, so the order a router seeds its
searches in is part of the routing result.  Routers used to seed from a
Python set of the tree's ``GridPoint`` vertices; they now keep an
order-only set of ``(layer, col, row)`` tuples
(:class:`~repro.search.TreeSeedOrder`) and run on flat indices.  These
tests pin that the two orders agree: for any insertions, and for every
search of every net on real designs, against a reference kept here that
grows the tree the old ``GridPoint``-set way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import SyntheticSpec, generate_design, suite_case
from repro.dr.router import DetailedRouter
from repro.geometry import GridPoint
from repro.sched.commit import route_log
from repro.search import TreeSeedOrder
from repro.tpl.color_state import ColorState
from repro.tpl.mr_tpl import MrTPLRouter

#: Small coordinate ranges, so batches repeat vertices and collide in the
#: hash table.
_KEYS = st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(0, 40))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_KEYS, max_size=30), min_size=1, max_size=8))
def test_tuple_and_gridpoint_sets_iterate_alike(batches):
    """Filled by ``set(list)`` then ``update(list)``, duplicates included,
    a tuple set and a GridPoint set iterate in one order."""
    points = set([GridPoint(*key) for key in batches[0]])
    keys = set(list(batches[0]))
    for batch in batches[1:]:
        points.update([GridPoint(*key) for key in batch])
        keys.update(list(batch))
    assert [point.as_tuple() for point in points] == list(keys)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 50), st.integers(1, 50)),
    st.lists(st.lists(_KEYS, max_size=30), min_size=1, max_size=8),
)
def test_tree_seed_order_follows_the_gridpoint_set(dims, batches):
    num_cols, num_rows = dims
    batches = [
        [(layer, col % num_cols, row % num_rows) for layer, col, row in batch]
        for batch in batches
    ]

    def index_of(point):
        return (point.layer * num_cols + point.col) * num_rows + point.row

    points = set([GridPoint(*key) for key in batches[0]])
    order = TreeSeedOrder(dims, [index_of(GridPoint(*key)) for key in batches[0]])
    for batch in batches[1:]:
        points.update([GridPoint(*key) for key in batch])
        order.update([index_of(GridPoint(*key)) for key in batch])
    assert order.nodes() == [index_of(point) for point in points]


# -- the reference: a net tree grown the GridPoint-set way ------------------------

_FULL = ColorState.all()
_SINGLE = tuple(ColorState.single(color) for color in range(3))


class ReferenceTree:
    """One net's tree bookkeeping as ``compute_route`` kept it on ``GridPoint``s.

    Seeds come from a ``GridPoint`` set built from the first pin's access
    vertices and grown with each path and each reached pin's access
    vertices; targets are keyed by ``GridPoint``; Mr.TPL's seed states come
    from the committed colors of the tree (fresh vertices at ``111``).
    """

    def __init__(self, router, net):
        grid = router.grid
        self.router = router
        self.grid = grid
        self.colored = isinstance(router, MrTPLRouter)
        self.pin_groups = [grid.pin_access_vertices(pin) for pin in net.pins]
        self.vertices = set(self.pin_groups[0])
        self.colors = {}
        self.unreached = list(range(1, len(self.pin_groups)))

    def seeds(self):
        index_of = self.grid.index_of
        if not self.colored:
            return [(index_of(vertex), 0) for vertex in self.vertices]
        sources = {}
        for vertex in self.vertices:
            color = self.colors.get(index_of(vertex))
            sources[vertex] = _FULL if color is None else _SINGLE[color]
        return [(index_of(vertex), state.bits) for vertex, state in sources.items()]

    def targets(self):
        targets = {}
        for index in self.unreached:
            for vertex in self.pin_groups[index]:
                if not self.colored or vertex not in self.vertices:
                    targets.setdefault(vertex, index)
        return targets

    def grow(self, result, net_name):
        """Add a found search's path and reached pin, as the router did."""
        vertex_of = self.grid.vertex_of
        if self.colored:
            path = result.node_path()  # destination first, as backtraced
            colored = self.router.backtracer.backtrace(result, net_name, self.colors)
            self.colors.update(colored.colors())
        else:
            path = result.backtrace()  # source first
        reached_pin = self.targets()[vertex_of(result.reached)]
        self.unreached.remove(reached_pin)
        self.vertices.update([vertex_of(node) for node in path])
        self.vertices.update(self.pin_groups[reached_pin])


def _dense_design():
    """The ispd19-like test10 profile (44x44x4) without its macro."""
    return generate_design(
        SyntheticSpec(
            name="dense_ispd19like_test10",
            seed=1910,
            cols=44,
            rows=44,
            num_layers=4,
            color_spacing=8,
            num_nets=134,
            min_pins=2,
            max_pins=6,
            multi_pin_bias=0.7,
            net_radius=10,
            obstacle_count=9,
            obstacle_span=5,
            colored_obstacle_fraction=0.6,
            macro_count=0,
            row_spacing=3,
            cell_spacing=3,
            strap_period=4,
        )
    )


DESIGNS = {
    "dense": _dense_design,
    "ispd19-test2": lambda: suite_case("ispd19", 2).build(),
}
ROUTERS = {
    "mr-tpl": lambda design: MrTPLRouter(design, use_global_router=False),
    "plain": lambda design: DetailedRouter(design),
}


@pytest.mark.parametrize("router_key", sorted(ROUTERS))
@pytest.mark.parametrize("design_key", sorted(DESIGNS))
def test_every_search_gets_the_reference_seeds(design_key, router_key, monkeypatch):
    """Route every net once, in the campaign's order, committing each route:
    every search's seeds and targets equal the reference tree's."""
    design = DESIGNS[design_key]()
    router = ROUTERS[router_key](design)
    engine = router.make_search_engine()
    search = engine.search
    state = {}
    calls = []

    def checked_search(seeds, targets, net_name):
        reference = state["tree"]
        assert seeds == reference.seeds()
        index_of = router.grid.index_of
        expected = reference.targets()
        assert list(targets.items()) == [(index_of(v), pin) for v, pin in expected.items()]
        result = search(seeds, targets, net_name)
        if result.found:
            reference.grow(result, net_name)
        calls.append(len(seeds))
        return result

    monkeypatch.setattr(engine, "search", checked_search)
    routed = 0
    for net in router.schedule_nets():
        state["tree"] = ReferenceTree(router, net)
        route = router.compute_route(net, engine)
        router.grid.commit_route(route_log(router.grid, route))
        routed += route.routed
    assert routed > 0
    assert len(calls) > routed  # multi-pin nets searched more than once
    assert max(calls) > 10  # trees of many vertices were seeded
