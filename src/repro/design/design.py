"""The top-level design container: layout + netlist + technology."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.design.cell import CellInstance, CellMaster
from repro.design.net import Net
from repro.design.obstacle import Obstacle
from repro.design.pin import Pin, PinShape
from repro.geometry import Rect
from repro.tech import TechStack


@dataclass
class Design:
    """Everything the routers need about one benchmark case.

    A design owns:

    * the technology stack (layers + design rules),
    * the die area,
    * placed cell instances and macros,
    * explicit obstacles (blockages, pre-routed shapes, possibly pre-colored),
    * the netlist (multi-pin nets referencing chip-space pins).
    """

    name: str
    tech: TechStack
    die_area: Rect
    masters: Dict[str, CellMaster] = field(default_factory=dict)
    instances: Dict[str, CellInstance] = field(default_factory=dict)
    nets: List[Net] = field(default_factory=list)
    obstacles: List[Obstacle] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------

    def add_master(self, master: CellMaster) -> CellMaster:
        """Register a cell master (raises on duplicate names)."""
        if master.name in self.masters:
            raise ValueError(f"duplicate master {master.name!r}")
        self.masters[master.name] = master
        return master

    def add_instance(self, instance: CellInstance) -> CellInstance:
        """Place a cell instance (raises on duplicate names)."""
        if instance.name in self.instances:
            raise ValueError(f"duplicate instance {instance.name!r}")
        self.instances[instance.name] = instance
        return instance

    def add_net(self, net: Net) -> Net:
        """Append a net to the netlist."""
        self.nets.append(net)
        return net

    def add_obstacle(self, obstacle: Obstacle) -> Obstacle:
        """Register an explicit routing obstacle."""
        self.obstacles.append(obstacle)
        return obstacle

    # -- lookups ----------------------------------------------------------------

    def net_by_name(self, name: str) -> Net:
        """Return the net called *name* (raises ``KeyError`` if unknown)."""
        for net in self.nets:
            if net.name == name:
                return net
        raise KeyError(f"no net named {name!r}")

    def routable_nets(self) -> List[Net]:
        """Return the nets with at least two pins, in netlist order."""
        return [net for net in self.nets if net.is_routable]

    def multi_pin_nets(self) -> List[Net]:
        """Return the nets with more than two pins."""
        return [net for net in self.nets if net.is_multi_pin]

    def all_pins(self) -> Iterator[Pin]:
        """Iterate over every pin of every net."""
        for net in self.nets:
            yield from net.pins

    # -- aggregate geometry -------------------------------------------------------

    def flat_obstacles(self) -> List[Obstacle]:
        """Return the obstacles followed by every instance obstruction.

        Writers that store no cell instances save this list, so a loaded
        design keeps every blockage of the original.
        """
        obstacles = list(self.obstacles)
        for instance in self.instances.values():
            obstacles.extend(
                Obstacle(layer=shape.layer, rect=shape.rect, name=f"{instance.name}/obs")
                for shape in instance.obstruction_shapes()
            )
        return obstacles

    def blockage_shapes(self) -> List[PinShape]:
        """Return every shape the router must treat as a blockage.

        This includes explicit obstacles and instance obstructions, but not
        pin shapes (pins block other nets, which the routing grid handles as
        per-net occupancy rather than hard blockage).
        """
        return [PinShape(obs.layer, obs.rect) for obs in self.flat_obstacles()]

    def colored_obstacles(self) -> List[Obstacle]:
        """Return obstacles carrying a pre-assigned TPL mask."""
        return [obs for obs in self.obstacles if obs.is_colored]

    def fixed_color_nets(self) -> List[Tuple[str, Obstacle]]:
        """Return ``(pseudo-net name, obstacle)`` for every pre-colored obstacle.

        The grid's pressure owner, the conflict reports' ``net_b`` and the
        decomposer's fixed nodes all use this name: ``__fixed__`` plus the
        obstacle's name, or its index in :meth:`colored_obstacles` when it
        has none, so equal designs always name their obstacles alike.
        """
        return [
            (f"__fixed__{obstacle.name or index}", obstacle)
            for index, obstacle in enumerate(self.colored_obstacles())
        ]

    # -- statistics -----------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Return summary statistics used by reports and benchmark tables."""
        routable = self.routable_nets()
        multi = [net for net in routable if net.is_multi_pin]
        pin_counts = [net.num_pins for net in routable]
        return {
            "nets": len(self.nets),
            "routable_nets": len(routable),
            "multi_pin_nets": len(multi),
            "pins": sum(pin_counts),
            "max_pins_per_net": max(pin_counts, default=0),
            "instances": len(self.instances),
            "obstacles": len(self.obstacles),
            "layers": self.tech.num_layers,
            "die_width": self.die_area.width,
            "die_height": self.die_area.height,
        }

    def validate(self) -> List[str]:
        """Return a list of consistency problems (empty when the design is clean).

        Checks performed:

        * every pin shape lies inside the die area,
        * every pin references a layer that exists in the technology,
        * nets have unique names,
        * every net pin belongs to that net (back-reference consistency).
        """
        problems: List[str] = []
        seen_names: Dict[str, int] = {}
        for net in self.nets:
            seen_names[net.name] = seen_names.get(net.name, 0) + 1
            for pin in net.pins:
                if pin.net_name != net.name:
                    problems.append(
                        f"pin {pin.full_name!r} back-references net {pin.net_name!r}, "
                        f"expected {net.name!r}"
                    )
                for shape in pin.shapes:
                    if not (0 <= shape.layer < self.tech.num_layers):
                        problems.append(
                            f"pin {pin.full_name!r} uses unknown layer {shape.layer}"
                        )
                    if not self.die_area.contains_rect(shape.rect):
                        problems.append(
                            f"pin {pin.full_name!r} shape {shape.rect} is outside the die"
                        )
        for name, count in seen_names.items():
            if count > 1:
                problems.append(f"net name {name!r} appears {count} times")
        for obstacle in self.obstacles:
            if not (0 <= obstacle.layer < self.tech.num_layers):
                problems.append(f"obstacle {obstacle.name!r} uses unknown layer {obstacle.layer}")
        return problems
