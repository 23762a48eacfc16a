"""Rectilinear Steiner tree construction for net topology generation.

Both the global router and the DAC-2012 baseline need a net topology: the
global router to decide which 2-pin connections to route on the GCell grid,
the baseline because it decomposes every multi-pin net into independent
2-pin connections (which is precisely what causes its stitch blow-up).

The implementation provides:

* :func:`rectilinear_mst` -- Prim's algorithm under the Manhattan metric,
* :func:`hanan_steiner_points` -- candidate Steiner points on the Hanan grid,
* :func:`build_steiner_tree` -- iterated 1-Steiner heuristic: greedily insert
  the Hanan point that reduces the MST length most, until no improvement.

The 1-Steiner heuristic is the classic Kahng/Robins approach and is accurate
enough for topology generation (it is not the wirelength bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.geometry import Point


@dataclass
class SteinerTree:
    """A tree over terminal and Steiner points under the Manhattan metric."""

    terminals: List[Point]
    steiner_points: List[Point] = field(default_factory=list)
    edges: List[Tuple[Point, Point]] = field(default_factory=list)

    @property
    def points(self) -> List[Point]:
        """Return terminals followed by Steiner points."""
        return list(self.terminals) + list(self.steiner_points)

    def length(self) -> int:
        """Return the total Manhattan length of the tree edges."""
        return sum(a.manhattan_distance(b) for a, b in self.edges)

    def two_pin_connections(self) -> List[Tuple[Point, Point]]:
        """Return the tree edges as a list of 2-pin connections."""
        return list(self.edges)

    def degree_of(self, point: Point) -> int:
        """Return the number of tree edges incident to *point*."""
        return sum(1 for a, b in self.edges if a == point or b == point)

    def is_connected(self) -> bool:
        """Return ``True`` when the edges span every terminal."""
        if not self.terminals:
            return True
        if not self.edges:
            return len(set(self.terminals)) <= 1
        adjacency: Dict[Point, Set[Point]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        seen: Set[Point] = set()
        stack = [self.terminals[0]]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return all(terminal in seen for terminal in set(self.terminals))


def rectilinear_mst(points: Sequence[Point]) -> List[Tuple[Point, Point]]:
    """Return the edges of a minimum spanning tree under the Manhattan metric.

    Uses Prim's algorithm in ``O(n^2)``, which is fine for net degrees in the
    single or low double digits (contest nets rarely exceed a few tens of
    pins and the synthetic suites cap the degree at six).
    """
    unique = list(dict.fromkeys(points))
    if len(unique) <= 1:
        return []
    in_tree = {unique[0]}
    remaining = set(unique[1:])
    best_link: Dict[Point, Tuple[int, Point]] = {
        p: (unique[0].manhattan_distance(p), unique[0]) for p in remaining
    }
    edges: List[Tuple[Point, Point]] = []
    while remaining:
        nearest = min(remaining, key=lambda p: (best_link[p][0], p.x, p.y))
        distance, anchor = best_link[nearest]
        edges.append((anchor, nearest))
        in_tree.add(nearest)
        remaining.discard(nearest)
        del best_link[nearest]
        for p in remaining:
            candidate = nearest.manhattan_distance(p)
            if candidate < best_link[p][0]:
                best_link[p] = (candidate, nearest)
    return edges


def mst_length(points: Sequence[Point]) -> int:
    """Return the Manhattan MST length of *points*."""
    return _mst_length([(p.x, p.y) for p in points])


def _mst_length(coords: List[Tuple[int, int]]) -> int:
    """Return the Manhattan MST length of the ``(x, y)`` points *coords*.

    Prim's algorithm on plain ints.  Every MST has the same length, so the
    order in which equally near points join cannot change the result.
    """
    if len(coords) <= 1:
        return 0
    (x0, y0), *others = coords
    # (distance to the tree, x, y) of every point not yet joined.
    rest = [(abs(x - x0) + abs(y - y0), x, y) for x, y in others]
    total = 0
    while rest:
        nearest = min(rest)
        rest.remove(nearest)
        distance, px, py = nearest
        total += distance
        rest = [
            (d if d <= (e := abs(x - px) + abs(y - py)) else e, x, y)
            for d, x, y in rest
        ]
    return total


def hanan_steiner_points(points: Sequence[Point]) -> List[Point]:
    """Return the Hanan grid points that are not already terminals.

    The Hanan grid is the set of intersections of horizontal and vertical
    lines through the terminals; an optimal rectilinear Steiner tree only
    needs Steiner points from this grid.
    """
    return [Point(x, y) for x, y in _hanan_coords([(p.x, p.y) for p in points])]


def _hanan_coords(coords: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Return the Hanan grid points of *coords* that are not in *coords*."""
    taken = set(coords)
    ys = sorted({y for _, y in coords})
    return [(x, y) for x in sorted({x for x, _ in coords}) for y in ys if (x, y) not in taken]


def build_steiner_tree(points: Sequence[Point], max_steiner_points: int = 16) -> SteinerTree:
    """Build a rectilinear Steiner tree with the iterated 1-Steiner heuristic.

    Parameters
    ----------
    points:
        The net terminals (pin centres).
    max_steiner_points:
        Upper bound on inserted Steiner points; net degrees here are small so
        the default is never reached in practice, but it guards the worst case.
    """
    terminals = list(dict.fromkeys(points))
    if len(terminals) <= 1:
        return SteinerTree(terminals=terminals, edges=[])
    steiner: List[Point] = []
    # Candidates are scored on int coordinates.
    coords = [(p.x, p.y) for p in terminals]
    current_length = _mst_length(coords)
    for _ in range(max_steiner_points):
        best_gain = 0
        best_candidate = None
        for candidate in _hanan_coords(coords):
            gain = current_length - _mst_length(coords + [candidate])
            if gain > best_gain:
                best_gain = gain
                best_candidate = candidate
        if best_candidate is None:
            break
        steiner.append(Point(*best_candidate))
        coords.append(best_candidate)
        current_length -= best_gain
    edges = rectilinear_mst(terminals + steiner)
    # Drop Steiner points of degree <= 1: they do not help the tree.
    tree = SteinerTree(terminals=terminals, steiner_points=steiner, edges=edges)
    pruned = [p for p in steiner if tree.degree_of(p) >= 2]
    if len(pruned) != len(steiner):
        edges = rectilinear_mst(terminals + pruned)
        tree = SteinerTree(terminals=terminals, steiner_points=pruned, edges=edges)
    return tree
