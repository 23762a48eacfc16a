"""Hand-crafted micro layouts mirroring the paper's figures, plus the
solution digests the tests and parity checks compare.

Micro layouts:

* :func:`fig1_dense_cluster` -- four closely spaced nets whose patterns
  cannot all receive different masks once routed without care: the scenario
  of Fig. 1(a)/(b) where layout decomposition hits an unsolvable conflict.
* :func:`fig1_multi_pin_net` -- one 4-pin net surrounded by pre-colored
  metal: the scenario of Fig. 1(c)/(d) where a 2-pin TPL router sprays
  stitches across the net while a multi-pin-aware router does not.
* :func:`fig3_walkthrough_design` -- the Fig. 3 walk-through: a 4-pin net
  with two fixed obstacles on mask 2 and mask 3 forcing the color state of
  the routed path to narrow from ``111`` to ``101`` to ``100``.

Solution digests: :func:`solution_fingerprint` and :func:`solution_metrics`
(the golden digests of ``tests/test_golden_solutions.py`` hash both).
"""

from __future__ import annotations

from typing import Dict

from repro.design import Design, Net, Obstacle, Pin
from repro.geometry import Rect
from repro.tech import DesignRules, make_default_tech


def _port(name: str, layer: int, x: int, y: int, half: int = 1) -> Pin:
    """Return a square top-level port pin centred on ``(x, y)``."""
    pin = Pin(name=name)
    pin.add_shape(layer, Rect(x - half, y - half, x + half, y + half))
    return pin


def _micro_design(name: str, size: int = 64, color_spacing: int = 8, num_layers: int = 3) -> Design:
    rules = DesignRules(color_spacing=color_spacing, min_spacing=1, wire_width=1)
    tech = make_default_tech(
        num_layers=num_layers, pitch=4, color_spacing=color_spacing, rules=rules
    )
    return Design(name=name, tech=tech, die_area=Rect(0, 0, size, size))


def fig1_dense_cluster() -> Design:
    """Return the Fig. 1(a) scenario: four mutually close patterns.

    Four 2-pin nets are forced through a narrow corridor so their wires end
    up pairwise closer than ``Dcolor``.  A decomposer that may not move the
    wires cannot 3-color four mutually conflicting patterns; a TPL-aware
    router spreads them (or pays a stitch) instead.
    """
    design = _micro_design("fig1_dense_cluster", size=64, color_spacing=8)
    # A corridor bounded by blockages on the first two layers squeezes the
    # four nets together in the middle of the die.
    design.add_obstacle(Obstacle(layer=0, rect=Rect(0, 24, 24, 40), name="wall_left"))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(40, 24, 64, 40), name="wall_right"))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(0, 24, 24, 40), name="wall_left_m2"))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(40, 24, 64, 40), name="wall_right_m2"))
    for index in range(4):
        x = 26 + index * 4
        net = Net(name=f"pair_{index}")
        net.add_pin(_port(f"pair_{index}_s", 0, x, 8))
        net.add_pin(_port(f"pair_{index}_t", 0, x, 56))
        design.add_net(net)
    return design


def fig1_multi_pin_net() -> Design:
    """Return the Fig. 1(c) scenario: one 4-pin net amid pre-colored metal.

    The pre-colored obstacles force parts of the net onto specific masks; a
    2-pin router commits each branch's color independently and pays stitches
    at the junctions, while the multi-pin color-state search agrees on masks
    across the whole tree.
    """
    design = _micro_design("fig1_multi_pin_net", size=64, color_spacing=8)
    design.add_obstacle(Obstacle(layer=0, rect=Rect(20, 18, 32, 22), name="fixed_green", color=1))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(36, 40, 48, 44), name="fixed_blue", color=2))
    net = Net(name="multi4")
    net.add_pin(_port("p1", 0, 8, 8))
    net.add_pin(_port("p2", 0, 56, 8))
    net.add_pin(_port("p3", 0, 8, 56))
    net.add_pin(_port("p4", 0, 56, 56))
    design.add_net(net)
    # Two short neighbour nets add color pressure around the junctions.
    neighbour_a = Net(name="nbr_a")
    neighbour_a.add_pin(_port("na_s", 0, 24, 28))
    neighbour_a.add_pin(_port("na_t", 0, 40, 28))
    design.add_net(neighbour_a)
    neighbour_b = Net(name="nbr_b")
    neighbour_b.add_pin(_port("nb_s", 0, 24, 36))
    neighbour_b.add_pin(_port("nb_t", 0, 40, 36))
    design.add_net(neighbour_b)
    return design


def fig3_walkthrough_design() -> Design:
    """Return the Fig. 3 walk-through case.

    A single 4-pin net must route past two fixed shapes assigned to mask 2
    (green) and mask 3 (blue).  Passing the green shape removes green from
    the path's color state (``111`` -> ``101``); passing the blue shape then
    removes blue (``101`` -> ``100``), so the backtrace must finally place the
    affected segments on mask 1 (red), exactly as in the paper's example.
    """
    design = _micro_design("fig3_walkthrough", size=48, color_spacing=8, num_layers=2)
    design.add_obstacle(Obstacle(layer=0, rect=Rect(14, 20, 22, 24), name="mask2_shape", color=1))
    design.add_obstacle(Obstacle(layer=0, rect=Rect(30, 20, 38, 24), name="mask3_shape", color=2))
    net = Net(name="fig3_net")
    net.add_pin(_port("pin1", 0, 4, 4))
    net.add_pin(_port("pin2", 0, 4, 44))
    net.add_pin(_port("pin3", 0, 24, 12))
    net.add_pin(_port("pin4", 0, 44, 28))
    design.add_net(net)
    return design


def solution_fingerprint(solution) -> Dict[str, tuple]:
    """Return a comparable, order-independent digest of a routing solution."""
    return {
        name: (
            tuple(sorted(route.vertices)),
            tuple(sorted(route.vertex_colors.items())),
            tuple(sorted(route.edges)),
            tuple(sorted((s.a, s.b) for s in route.stitches)),
            route.routed,
        )
        for name, route in solution.routes.items()
    }


def solution_metrics(solution) -> Dict[str, float]:
    """Return the scalar quality metrics compared next to the fingerprint."""
    return {
        "wirelength": solution.total_wirelength(),
        "vias": solution.total_vias(),
        "stitches": solution.total_stitches(),
        "failed_nets": len(solution.failed_nets()),
        "iterations": solution.iterations,
    }
