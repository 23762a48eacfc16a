"""JSON serialization of designs and routing solutions.

The JSON schema is intentionally simple and explicit: every geometric object
becomes a small dictionary of integers, so saved files diff cleanly and can
be inspected by hand.  Cell masters/instances are flattened on save into
top-level port pins and obstacles (the router only needs chip-space pin and
obstruction shapes), which keeps the round-trip lossless with respect to the
routing problem.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.design import Design, Net, Obstacle, Pin
from repro.geometry import GridPoint, Rect
from repro.grid import NetRoute, RoutingSolution
from repro.tech import DesignRules, Layer, LayerDirection, TechStack

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Designs
# ----------------------------------------------------------------------

def _rect_to_dict(rect: Rect) -> Dict[str, int]:
    return {"xlo": rect.xlo, "ylo": rect.ylo, "xhi": rect.xhi, "yhi": rect.yhi}


def _rect_from_dict(data: Dict[str, int]) -> Rect:
    return Rect(data["xlo"], data["ylo"], data["xhi"], data["yhi"])


def design_to_dict(design: Design) -> Dict[str, Any]:
    """Serialise *design* to a JSON-compatible dictionary."""
    tech = design.tech
    return {
        "name": design.name,
        "die_area": _rect_to_dict(design.die_area),
        "tech": {
            "name": tech.name,
            "layers": [
                {
                    "index": layer.index,
                    "name": layer.name,
                    "direction": layer.direction.value,
                    "pitch": layer.pitch,
                    "width": layer.width,
                    "spacing": layer.spacing,
                    "offset": layer.offset,
                    "tpl": layer.tpl,
                }
                for layer in tech.layers
            ],
            "rules": {
                "color_spacing": tech.rules.color_spacing,
                "min_spacing": tech.rules.min_spacing,
                "wire_width": tech.rules.wire_width,
                "alpha": tech.rules.alpha,
                "beta": tech.rules.beta,
                "gamma": tech.rules.gamma,
                "via_cost": tech.rules.via_cost,
                "wrong_way_penalty": tech.rules.wrong_way_penalty,
                "out_of_guide_penalty": tech.rules.out_of_guide_penalty,
                "history_weight": tech.rules.history_weight,
                "occupancy_penalty": tech.rules.occupancy_penalty,
                "stitch_cost": tech.rules.stitch_cost,
                "conflict_cost": tech.rules.conflict_cost,
                "max_ripup_iterations": tech.rules.max_ripup_iterations,
                "color_spacing_per_layer": {
                    str(k): v for k, v in tech.rules.color_spacing_per_layer.items()
                },
            },
        },
        "obstacles": [
            {
                "layer": obstacle.layer,
                "rect": _rect_to_dict(obstacle.rect),
                "name": obstacle.name,
                "color": obstacle.color,
            }
            for obstacle in design.flat_obstacles()
        ],
        "nets": [
            {
                "name": net.name,
                "weight": net.weight,
                "pins": [
                    {
                        "name": pin.full_name,
                        "shapes": [
                            {"layer": shape.layer, "rect": _rect_to_dict(shape.rect)}
                            for shape in pin.shapes
                        ],
                    }
                    for pin in net.pins
                ],
            }
            for net in design.nets
        ],
    }


def design_from_dict(data: Dict[str, Any]) -> Design:
    """Rebuild a design from :func:`design_to_dict` output."""
    rules_data = data["tech"]["rules"]
    rules = DesignRules(
        color_spacing=rules_data["color_spacing"],
        min_spacing=rules_data["min_spacing"],
        wire_width=rules_data["wire_width"],
        alpha=rules_data["alpha"],
        beta=rules_data["beta"],
        gamma=rules_data["gamma"],
        via_cost=rules_data["via_cost"],
        wrong_way_penalty=rules_data["wrong_way_penalty"],
        out_of_guide_penalty=rules_data["out_of_guide_penalty"],
        history_weight=rules_data["history_weight"],
        occupancy_penalty=rules_data["occupancy_penalty"],
        stitch_cost=rules_data["stitch_cost"],
        conflict_cost=rules_data["conflict_cost"],
        max_ripup_iterations=rules_data["max_ripup_iterations"],
        color_spacing_per_layer={
            int(k): v for k, v in rules_data.get("color_spacing_per_layer", {}).items()
        },
    )
    layers = [
        Layer(
            index=layer["index"],
            name=layer["name"],
            direction=LayerDirection(layer["direction"]),
            pitch=layer["pitch"],
            width=layer["width"],
            spacing=layer["spacing"],
            offset=layer["offset"],
            tpl=layer["tpl"],
        )
        for layer in data["tech"]["layers"]
    ]
    tech = TechStack(layers=layers, rules=rules, name=data["tech"]["name"])
    design = Design(
        name=data["name"],
        tech=tech,
        die_area=_rect_from_dict(data["die_area"]),
    )
    for obstacle in data["obstacles"]:
        design.add_obstacle(
            Obstacle(
                layer=obstacle["layer"],
                rect=_rect_from_dict(obstacle["rect"]),
                name=obstacle["name"],
                color=obstacle["color"],
            )
        )
    for net_data in data["nets"]:
        net = Net(name=net_data["name"], weight=net_data.get("weight", 1.0))
        for pin_data in net_data["pins"]:
            pin = Pin(name=pin_data["name"])
            for shape in pin_data["shapes"]:
                pin.add_shape(shape["layer"], _rect_from_dict(shape["rect"]))
            net.add_pin(pin)
        design.add_net(net)
    return design


def save_design_json(design: Design, path: PathLike) -> None:
    """Write *design* to *path* as JSON."""
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2))


def load_design_json(path: PathLike) -> Design:
    """Read a design previously written by :func:`save_design_json`."""
    return design_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Routing solutions
# ----------------------------------------------------------------------

def _vertex_to_list(vertex: GridPoint) -> List[int]:
    return [vertex.layer, vertex.col, vertex.row]


def _vertex_from_list(data: List[int]) -> GridPoint:
    return GridPoint(data[0], data[1], data[2])


def route_to_dict(route: NetRoute) -> Dict[str, Any]:
    """Serialise one net route to a JSON-compatible dictionary.

    The round-trip through :func:`route_from_dict` is lossless (every
    ``NetRoute`` field travels), which the campaign checkpoints rely on:
    a resumed rip-up loop must see exactly the routes the interrupted
    process held.  The ``stitches`` list is written for readers of the
    file; it is derived from the colours, so it is not read back.
    """
    return {
        "net": route.net_name,
        "routed": route.routed,
        "failure_reason": route.failure_reason,
        "vertices": [_vertex_to_list(v) for v in sorted(route.vertices)],
        "edges": [
            [_vertex_to_list(a), _vertex_to_list(b)] for a, b in sorted(route.edges)
        ],
        "colors": [
            [_vertex_to_list(v), color]
            for v, color in sorted(route.vertex_colors.items())
        ],
        "stitches": [
            [_vertex_to_list(s.a), _vertex_to_list(s.b)]
            for s in sorted(route.stitches, key=lambda s: (s.a, s.b))
        ],
    }


def route_from_dict(route_data: Dict[str, Any], dims: Tuple[int, int]) -> NetRoute:
    """Rebuild one net route from :func:`route_to_dict` output.

    *dims* is the ``(num_cols, num_rows)`` of the grid the route lives on
    (:attr:`RoutingGrid.route_dims`), which its flat indices address.
    """
    route = NetRoute(
        net_name=route_data["net"],
        dims=dims,
        routed=route_data["routed"],
        failure_reason=route_data.get("failure_reason", ""),
    )
    node_of = route.node_of
    route.nodes.update([node_of(_vertex_from_list(vertex)) for vertex in route_data["vertices"]])
    for a, b in route_data["edges"]:
        route.add_edge(_vertex_from_list(a), _vertex_from_list(b))
    for vertex, color in route_data["colors"]:
        route.set_color(_vertex_from_list(vertex), color)
    return route


def solution_to_dict(solution: RoutingSolution) -> Dict[str, Any]:
    """Serialise a routing solution to a JSON-compatible dictionary."""
    return {
        "design_name": solution.design_name,
        "router_name": solution.router_name,
        "runtime_seconds": solution.runtime_seconds,
        "iterations": solution.iterations,
        "routes": [route_to_dict(route) for route in solution.routes.values()],
    }


def solution_from_dict(data: Dict[str, Any], dims: Tuple[int, int]) -> RoutingSolution:
    """Rebuild a routing solution from :func:`solution_to_dict` output.

    *dims* is the grid's :attr:`RoutingGrid.route_dims` (see
    :func:`route_from_dict`).
    """
    solution = RoutingSolution(
        design_name=data["design_name"],
        router_name=data.get("router_name", ""),
        runtime_seconds=data.get("runtime_seconds", 0.0),
        iterations=data.get("iterations", 0),
    )
    for route_data in data["routes"]:
        solution.add_route(route_from_dict(route_data, dims))
    return solution


def save_solution_json(solution: RoutingSolution, path: PathLike) -> None:
    """Write *solution* to *path* as JSON."""
    Path(path).write_text(json.dumps(solution_to_dict(solution), indent=2))


def load_solution_json(path: PathLike, dims: Tuple[int, int]) -> RoutingSolution:
    """Read a solution previously written by :func:`save_solution_json`.

    *dims* is the grid's :attr:`RoutingGrid.route_dims` (see
    :func:`route_from_dict`).
    """
    return solution_from_dict(json.loads(Path(path).read_text()), dims)
