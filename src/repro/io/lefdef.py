"""A LEF/DEF-lite text format for designs.

The ISPD benchmarks use LEF (library) and DEF (design) files; this module
implements a readable subset with the same overall shape so the parsing code
path of a real router is exercised:

.. code-block:: text

    DESIGN example ;
    DIEAREA ( 0 0 ) ( 400 400 ) ;
    LAYERS 4 ;
    OBS M2 ( 40 40 ) ( 80 80 ) COLOR 1 ;
    NET n1 ;
      PIN p1 M1 ( 8 8 ) ( 12 12 ) ;
      PIN p2 M1 ( 120 8 ) ( 124 12 ) ;
    END NET
    END DESIGN

Layer names are ``M1`` .. ``Mn`` (1-based, as in LEF); colors are 1-based
mask numbers in the file and 0-based in memory, matching how foundry decks
number masks starting at 1.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.design import Design, Net, Obstacle, Pin
from repro.geometry import Rect
from repro.tech import DesignRules, make_default_tech

PathLike = Union[str, Path]


def _layer_name(index: int) -> str:
    return f"M{index + 1}"


def _layer_index(name: str) -> int:
    if not name.startswith("M"):
        raise ValueError(f"unknown layer name {name!r}")
    return int(name[1:]) - 1


def write_def_lite(design: Design, path: PathLike) -> None:
    """Write *design* in the DEF-lite text format."""
    lines: List[str] = []
    lines.append(f"DESIGN {design.name} ;")
    die = design.die_area
    lines.append(f"DIEAREA ( {die.xlo} {die.ylo} ) ( {die.xhi} {die.yhi} ) ;")
    lines.append(f"LAYERS {design.tech.num_layers} ;")
    lines.append(f"COLORSPACING {design.tech.rules.color_spacing} ;")
    for obstacle in design.flat_obstacles():
        rect = obstacle.rect
        color_part = f" COLOR {obstacle.color + 1}" if obstacle.is_colored else ""
        lines.append(
            f"OBS {_layer_name(obstacle.layer)} ( {rect.xlo} {rect.ylo} ) "
            f"( {rect.xhi} {rect.yhi} ){color_part} ;"
        )
    for net in design.nets:
        lines.append(f"NET {net.name} ;")
        for pin in net.pins:
            for shape in pin.shapes:
                rect = shape.rect
                lines.append(
                    f"  PIN {pin.full_name.replace('/', '.')} {_layer_name(shape.layer)} "
                    f"( {rect.xlo} {rect.ylo} ) ( {rect.xhi} {rect.yhi} ) ;"
                )
        lines.append("END NET")
    lines.append("END DESIGN")
    Path(path).write_text("\n".join(lines) + "\n")


def read_def_lite(path: PathLike, rules: Optional[DesignRules] = None) -> Design:
    """Read a DEF-lite file written by :func:`write_def_lite`.

    Cell instances are not part of the format (pins and obstructions are
    stored flat), so the returned design contains ports, nets and obstacles
    -- everything the routers need.
    """
    text = Path(path).read_text()
    name = "design"
    die = Rect(0, 0, 100, 100)
    num_layers = 3
    color_spacing = 8
    obstacles: List[Obstacle] = []
    nets: List[Net] = []
    current_net: Optional[Net] = None
    obstacle_counter = 0

    for raw_line in text.splitlines():
        tokens = raw_line.replace("(", " ").replace(")", " ").split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "DESIGN":
            name = tokens[1]
        elif keyword == "DIEAREA":
            xlo, ylo, xhi, yhi = (int(tokens[i]) for i in (1, 2, 3, 4))
            die = Rect(xlo, ylo, xhi, yhi)
        elif keyword == "LAYERS":
            num_layers = int(tokens[1])
        elif keyword == "COLORSPACING":
            color_spacing = int(tokens[1])
        elif keyword == "OBS":
            layer = _layer_index(tokens[1])
            xlo, ylo, xhi, yhi = (int(tokens[i]) for i in (2, 3, 4, 5))
            color = -1
            if "COLOR" in tokens:
                color = int(tokens[tokens.index("COLOR") + 1]) - 1
            obstacles.append(
                Obstacle(
                    layer=layer,
                    rect=Rect(xlo, ylo, xhi, yhi),
                    name=f"obs_{obstacle_counter}",
                    color=color,
                )
            )
            obstacle_counter += 1
        elif keyword == "NET":
            current_net = Net(name=tokens[1])
        elif keyword == "PIN" and current_net is not None:
            pin_name = tokens[1]
            layer = _layer_index(tokens[2])
            xlo, ylo, xhi, yhi = (int(tokens[i]) for i in (3, 4, 5, 6))
            pin = Pin(name=pin_name)
            pin.add_shape(layer, Rect(xlo, ylo, xhi, yhi))
            current_net.add_pin(pin)
        elif keyword == "END" and len(tokens) > 1 and tokens[1] == "NET":
            if current_net is not None:
                nets.append(current_net)
                current_net = None

    if rules is None:
        rules = DesignRules(color_spacing=color_spacing, min_spacing=1, wire_width=1)
    tech = make_default_tech(
        num_layers=num_layers, color_spacing=color_spacing, rules=rules
    )
    design = Design(name=name, tech=tech, die_area=die)
    for obstacle in obstacles:
        design.add_obstacle(obstacle)
    for net in nets:
        design.add_net(net)
    return design
