"""A net's route is the one record of what it leaves on the grid.

Every commit -- ``route_net``, the keep-best restore, the batch executor --
goes through the route log :func:`repro.sched.commit.route_log` derives
from the net's route.  Two checks pin that:

* a hand-made Mr.TPL net that reaches a pin with several access vertices
  and then fails commits only its coloured vertices, and the keep-best
  restore's re-commit of that route leaves the grid as it was;
* after full campaigns of all three routers, committing every final route
  onto a fresh grid through the per-vertex public mutators
  (:meth:`RoutingGrid.occupy` / :meth:`RoutingGrid.set_vertex_color`)
  gives the campaign grid's owner, colour and pressure buffers and per-net
  tables.
"""

import pytest

from repro.baselines import Dac2012Router
from repro.bench import suite_case
from repro.design import Design, Net, Obstacle, Pin
from repro.dr import DetailedRouter
from repro.geometry import Rect
from repro.grid import RoutingGrid, RoutingSolution
from repro.sched.commit import route_log
from repro.tech import make_default_tech
from repro.tpl import MrTPLRouter


def pocket_design():
    """Return one 3-pin net whose last pin sits in a walled pocket.

    Pin ``a`` has one access vertex, pin ``b`` three in a row, and pin
    ``c`` is ringed by blockage on layer 0 and roofed over on layer 1, so
    the net reaches ``b`` and then fails.
    """
    tech = make_default_tech(num_layers=2, color_spacing=8)
    design = Design(name="pocket", tech=tech, die_area=Rect(0, 0, 64, 64))
    pins = []
    for name, rect in (
        ("a", Rect(4, 28, 6, 30)),
        ("b", Rect(24, 28, 34, 30)),
        ("c", Rect(52, 52, 54, 54)),
    ):
        pin = Pin(name=name)
        pin.add_shape(0, rect)
        pins.append(pin)
    design.add_net(Net(name="n1", pins=pins))
    for name, rect in (
        ("ring_s", Rect(44, 44, 62, 46)),
        ("ring_n", Rect(44, 60, 62, 62)),
        ("ring_w", Rect(44, 44, 46, 62)),
        ("ring_e", Rect(60, 44, 62, 62)),
    ):
        design.add_obstacle(Obstacle(layer=0, rect=rect, name=name))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(44, 44, 62, 62), name="roof"))
    return design


def test_failed_route_commits_only_its_coloured_vertices():
    design = pocket_design()
    router = MrTPLRouter(design, use_global_router=False, max_iterations=0)
    grid = router.grid
    net = design.routable_nets()[0]
    pin_b = grid.pin_access_nodes(net.pins[1])
    assert len(pin_b) == 3

    route = router.route_net(net)
    assert not route.routed
    # The net reached b: its access vertices are in the tree, and the
    # ones off the path stay uncoloured.
    assert set(pin_b) <= route.nodes
    uncoloured = [node for node in pin_b if node not in route.node_colors]
    assert uncoloured
    net_id = grid.net_id(net.name)
    assert route_log(grid, route)[: len(route.node_colors)] == [
        ("occupy", net_id, node) for node in route.node_colors
    ]
    committed = grid.snapshot_state()
    assert committed["net_occupied"] == [[net_id, sorted(route.node_colors)]]
    for node in uncoloured:
        assert grid.occupants(grid.vertex_of(node)) == set()

    # The keep-best restore releases the route and commits it again.
    router._restore(RoutingSolution(design.name), {net.name: route})
    assert grid.snapshot_state() == committed


def commit_per_vertex(design, net_names, solution):
    """Return a fresh grid holding every route of *solution*, committed
    through the public mutators: a routed route occupies every vertex, a
    failed one only its coloured vertices, then each colour is set in the
    route's colour order.  Nets are interned in *net_names* order first."""
    grid = RoutingGrid(design)
    for name in net_names:
        grid.net_id(name)
    vertex_of = grid.vertex_of
    for route in solution.routes.values():
        for node in route.nodes if route.routed else route.node_colors:
            grid.occupy(vertex_of(node), route.net_name)
        for node, color in route.node_colors.items():
            grid.set_vertex_color(vertex_of(node), route.net_name, color)
    return grid


ROUTERS = {"maze": DetailedRouter, "color-state": MrTPLRouter, "dac2012": Dac2012Router}

#: Grid state a commit writes; history is the rip-up loop's, not a commit's.
COMMITTED_STATE = (
    "owner",
    "color",
    "pressure",
    "net_names",
    "multi_owners",
    "net_occupied",
    "net_colored",
)


@pytest.mark.parametrize("case", [(2, 0.5), (4, 0.7)], ids=["test2", "test4"])
@pytest.mark.parametrize("router_key", sorted(ROUTERS))
def test_campaign_grid_holds_exactly_the_final_routes(router_key, case):
    number, scale = case
    design = suite_case("ispd19", number, scale).build()
    router = ROUTERS[router_key](design)
    solution = router.run()
    if number == 4:
        assert solution.failed_nets()
    campaign = router.grid.snapshot_state()
    reference = commit_per_vertex(design, campaign["net_names"], solution).snapshot_state()
    for key in COMMITTED_STATE:
        assert campaign[key] == reference[key], key
