"""A congestion-aware global router producing per-net route guides.

The global router is deliberately simple -- its job in this reproduction is
to provide realistic GR guides for the detailed routers (the paper's flow
"calculate[s] color cost by GR guide"), not to compete with industrial GR:

1. compute a rectilinear Steiner topology per net (:mod:`repro.gr.steiner`),
2. route each 2-pin connection of the topology over the GCell grid with a
   congestion-penalised A* search (planar moves on layer 0, which carries
   the pins, cost four times more; layers 1+ prefer their own direction),
3. accumulate boundary usage so later nets avoid congested regions,
4. emit a :class:`~repro.gr.guide.GuideSet` with one expanded guide per net.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

from repro.design import Design, Net
from repro.geometry import Point
from repro.gr.guide import GuideSet, RouteGuide
from repro.gr.steiner import build_steiner_tree
from repro.grid.gcell import GCellGrid
from repro.utils import get_logger

_LOG = get_logger("gr.global_router")

#: Cost of a via between two stacked gcells.
_VIA_COST = 2.0


class GlobalRouter:
    """Guide-producing global router over the GCell grid.

    The search runs on the grid's flat gcell slots
    ``(layer * num_gx + gx) * num_gy + gy`` -- the numbering
    :class:`~repro.gr.guide.GuideTables` reads guides through -- and builds
    :class:`~repro.grid.gcell.GCell` objects only for the guides it returns.
    """

    def __init__(
        self,
        design: Design,
        gcell_size: int = 16,
        capacity: int = 6,
        guide_margin: int = 1,
    ) -> None:
        self.design = design
        self.gcell_grid = GCellGrid(design, gcell_size=gcell_size, capacity=capacity)
        self.guide_margin = guide_margin
        # Per layer, the direction penalty of a move along gx and along gy:
        # 1.0 in the preferred direction, 2.5 against it, and four times that
        # on layer 0, which carries pins and cell obstructions.
        self._penalties: List[Tuple[float, float]] = []
        for index, layer in enumerate(design.tech.layers):
            along_x = 1.0 if layer.is_horizontal else 2.5
            along_y = 1.0 if layer.is_vertical else 2.5
            if index == 0:
                along_x *= 4.0
                along_y *= 4.0
            self._penalties.append((along_x, along_y))

    # -- public API -----------------------------------------------------------

    def route(self) -> GuideSet:
        """Globally route every routable net and return the guide set.

        Nets are processed in increasing half-perimeter wirelength order so
        short nets (hard to detour) claim their resources first -- the usual
        net-ordering heuristic of sequential global routers.
        """
        guides = GuideSet(self.gcell_grid)
        nets = sorted(
            self.design.routable_nets(),
            key=lambda net: (net.half_perimeter_wirelength(), net.name),
        )
        for net in nets:
            guide = self.route_net(net)
            guides.add(guide.expanded(self.gcell_grid, self.guide_margin))
        _LOG.info(
            "global routing done: %d nets, overflow %.1f",
            len(nets),
            self.gcell_grid.total_overflow(),
        )
        return guides

    def route_net(self, net: Net) -> RouteGuide:
        """Globally route one net and return its (unexpanded) guide."""
        grid = self.gcell_grid
        pin_points = [pin.center() for pin in net.pins]
        slots = {grid.slot_of(grid.cell_of_point(0, point)) for point in pin_points}
        if len(slots) > 1:
            plane = grid.num_gx * grid.num_gy
            for start, end in build_steiner_tree(pin_points).two_pin_connections():
                path = self._route_two_pin(start, end)
                slots.update(path)
                for a, b in zip(path, path[1:]):
                    if a // plane == b // plane:
                        grid.add_slot_usage(a, b)
        return RouteGuide(net.name, {grid.cell_of_slot(slot) for slot in slots})

    # -- 2-pin GCell routing --------------------------------------------------

    def _route_two_pin(self, start: Point, end: Point) -> List[int]:
        """Route one topology edge on the GCell grid; returns the slot path.

        A* from the source gcell on layer 0 to the target's column on any
        layer.  Heap entries are ``(priority, counter, slot)``; ``live``
        holds the counter of each slot's current entry, so a re-pushed slot
        leaves a stale entry that is skipped on pop and ties pop in push
        order.
        """
        grid = self.gcell_grid
        num_gx, num_gy = grid.num_gx, grid.num_gy
        plane = num_gx * num_gy
        top_layer = grid.num_layers - 1
        source = grid.slot_of(grid.cell_of_point(0, start))
        target = grid.slot_of(grid.cell_of_point(0, end))
        if source == target:
            return [source]
        target_gx, target_gy = divmod(target, num_gy)
        capacity_of = grid.slot_capacity
        usage = grid._usage
        penalties = self._penalties
        heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
        live = {source: 0}
        counter = 1
        best_cost = {source: 0.0}
        parent = {source: -1}
        found = -1
        while heap:
            _priority, count, slot = heappop(heap)
            if live.get(slot) != count:
                continue
            del live[slot]
            cost = best_cost[slot]
            layer, rest = divmod(slot, plane)
            gx, gy = divmod(rest, num_gy)
            if gx == target_gx and gy == target_gy:
                found = slot
                break
            along_x, along_y = penalties[layer]
            capacity = capacity_of[slot]
            # Neighbours in the order +gx, -gx, +gy, -gy, up, down; planar
            # moves carry a penalty, vias ``None``.
            for nbr, nbr_gx, nbr_gy, penalty, inside in (
                (slot + num_gy, gx + 1, gy, along_x, gx < num_gx - 1),
                (slot - num_gy, gx - 1, gy, along_x, gx > 0),
                (slot + 1, gx, gy + 1, along_y, gy < num_gy - 1),
                (slot - 1, gx, gy - 1, along_y, gy > 0),
                (slot + plane, gx, gy, None, layer < top_layer),
                (slot - plane, gx, gy, None, layer > 0),
            ):
                if not inside:
                    continue
                if penalty is None:
                    step = _VIA_COST
                else:
                    # GCellGrid.congestion_cost on slots.
                    bound = max(min(capacity, capacity_of[nbr]), 0.5)
                    crossing = usage.get((slot, nbr) if slot < nbr else (nbr, slot), 0)
                    overflow = max(0.0, crossing + 1 - bound)
                    step = penalty * (1.0 + overflow * overflow)
                candidate = cost + step
                if candidate < best_cost.get(nbr, float("inf")):
                    best_cost[nbr] = candidate
                    parent[nbr] = slot
                    heuristic = abs(nbr_gx - target_gx) + abs(nbr_gy - target_gy)
                    live[nbr] = counter
                    heappush(heap, (candidate + heuristic, counter, nbr))
                    counter += 1
        if found < 0:
            # Unreachable targets should not happen on an open GCell grid, but
            # fall back to the straight bounding-box guide rather than failing.
            return self._bounding_box_slots(source, target)
        path: List[int] = []
        cursor = found
        while cursor >= 0:
            path.append(cursor)
            cursor = parent[cursor]
        path.reverse()
        return path

    def _bounding_box_slots(self, a: int, b: int) -> List[int]:
        grid = self.gcell_grid
        a_gx, a_gy = divmod(a, grid.num_gy)
        b_gx, b_gy = divmod(b, grid.num_gy)
        plane = grid.num_gx * grid.num_gy
        return [
            layer * plane + gx * grid.num_gy + gy
            for gx in range(min(a_gx, b_gx), max(a_gx, b_gx) + 1)
            for gy in range(min(a_gy, b_gy), max(a_gy, b_gy) + 1)
            for layer in range(grid.num_layers)
        ]
