"""Three-coloring of conflict/stitch graphs for layout decomposition.

The decomposition baseline (OpenMPL-like) reduces mask assignment to graph
coloring: nodes are coloring units (pieces of routed metal), *conflict*
edges connect units of different nets that are closer than ``Dcolor``
(same color on a conflict edge costs a conflict), and *stitch* edges connect
electrically adjacent units of the same net (different colors on a stitch
edge cost a stitch).  The objective is the weighted sum the paper minimises.

Components small enough are solved exactly with branch-and-bound; larger
components fall back to a degree-ordered greedy assignment followed by
iterative single-node improvement, which is the standard structure of
practical decomposers.  :func:`solve_coloring` builds the problem's
adjacency once and hands it to the component walk and to both solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.tpl.color_state import ALL_COLORS

#: Default weight of one conflict relative to one stitch.
DEFAULT_CONFLICT_WEIGHT = 10.0
DEFAULT_STITCH_WEIGHT = 1.0

#: ``{node: {neighbour: kind}}``, kind ``"conflict"`` or ``"stitch"``.
Adjacency = Dict[Hashable, Dict[Hashable, str]]


@dataclass
class ColoringProblem:
    """A 3-coloring instance over arbitrary hashable node ids."""

    conflict_edges: List[Tuple[Hashable, Hashable]] = field(default_factory=list)
    stitch_edges: List[Tuple[Hashable, Hashable]] = field(default_factory=list)
    fixed_colors: Dict[Hashable, int] = field(default_factory=dict)
    conflict_weight: float = DEFAULT_CONFLICT_WEIGHT
    stitch_weight: float = DEFAULT_STITCH_WEIGHT

    def nodes(self) -> List[Hashable]:
        """Return every node mentioned by an edge or a fixed assignment."""
        seen: Dict[Hashable, None] = {}
        for a, b in self.conflict_edges + self.stitch_edges:
            seen.setdefault(a)
            seen.setdefault(b)
        for node in self.fixed_colors:
            seen.setdefault(node)
        return list(seen)

    def adjacency(self) -> Adjacency:
        """Return the combined conflict+stitch graph as ``{node: {nbr: kind}}``.

        Every node of :meth:`nodes` has an entry.  A pair listed more than
        once is one edge, and a conflict edge dominates a stitch edge on
        the same pair.
        """
        adjacency: Adjacency = {node: {} for node in self.nodes()}
        for a, b in self.conflict_edges:
            adjacency[a][b] = adjacency[b][a] = "conflict"
        for a, b in self.stitch_edges:
            if b not in adjacency[a]:
                adjacency[a][b] = adjacency[b][a] = "stitch"
        return adjacency

    def cost_of(self, assignment: Dict[Hashable, int]) -> float:
        """Return the weighted conflict+stitch cost of *assignment*.

        The objective the solvers minimise: scored over :meth:`adjacency`,
        as :meth:`count` does.
        """
        conflicts, stitches = self.count(assignment)
        return conflicts * self.conflict_weight + stitches * self.stitch_weight

    def count(self, assignment: Dict[Hashable, int]) -> Tuple[int, int]:
        """Return ``(conflicts, stitches)`` of *assignment* over :meth:`adjacency`.

        Each node pair counts once, however often it is listed, and a pair
        listed as both a conflict and a stitch counts as a conflict.  Pairs
        with an uncoloured node count nothing.
        """
        conflicts = stitches = 0
        scored = set()
        for a, neighbours in self.adjacency().items():
            scored.add(a)
            color = assignment.get(a)
            if color is None:
                continue
            for b, kind in neighbours.items():
                if b in scored and b != a:
                    continue
                other = assignment.get(b)
                if other is None:
                    continue
                if kind == "conflict":
                    conflicts += color == other
                else:
                    stitches += color != other
        return conflicts, stitches


def _degree(adjacency: Adjacency, node: Hashable) -> int:
    """Return the degree of *node*; a self-loop counts twice."""
    neighbours = adjacency[node]
    return len(neighbours) + (node in neighbours)


def _by_degree(adjacency: Adjacency, nodes: Iterable[Hashable]) -> List[Hashable]:
    """Return *nodes* in decreasing-degree order, ties by ``str(node)``."""
    return sorted(nodes, key=lambda n: (-_degree(adjacency, n), str(n)))


def _mask_costs(
    problem: ColoringProblem,
    neighbours: Iterable[Tuple[Hashable, str]],
    assignment: Dict[Hashable, int],
) -> List[float]:
    """Return the cost of each mask (indexed by color) for one node.

    *neighbours* are ``(nbr, kind)`` pairs; uncolored neighbours cost
    nothing.  Each mask's cost adds its terms in neighbour order.
    """
    costs = [0.0] * len(ALL_COLORS)
    for nbr, kind in neighbours:
        nbr_color = assignment.get(nbr)
        if nbr_color is None:
            continue
        if kind == "conflict":
            costs[nbr_color] += problem.conflict_weight
        else:
            for color in ALL_COLORS:
                if color != nbr_color:
                    costs[color] += problem.stitch_weight
    return costs


def color_component_exact(
    problem: ColoringProblem,
    nodes: Sequence[Hashable],
    time_budget_nodes: int = 200_000,
) -> Dict[Hashable, int]:
    """Optimally color *nodes* by branch-and-bound over the 3 masks.

    The search assigns nodes in decreasing-degree order and prunes branches
    whose partial cost already exceeds the best complete assignment found.
    Fixed nodes hold their colors for the whole search, so a free node's
    partial cost includes its edges to fixed nodes later in the order.
    ``time_budget_nodes`` caps the number of explored search-tree nodes; on
    exhaustion the best solution found so far is returned (which is still a
    valid, usually near-optimal assignment).
    """
    return _color_exact(problem, problem.adjacency(), nodes, time_budget_nodes)


def _color_exact(
    problem: ColoringProblem,
    adjacency: Adjacency,
    nodes: Sequence[Hashable],
    time_budget_nodes: int = 200_000,
) -> Dict[Hashable, int]:
    """:func:`color_component_exact` on a prebuilt *adjacency*."""
    members = set(nodes)
    ordered = _by_degree(adjacency, nodes)
    neighbours: Dict[Hashable, List[Tuple[Hashable, str]]] = {
        node: [(nbr, kind) for nbr, kind in adjacency[node].items() if nbr in members]
        for node in ordered
    }
    best_assignment: Dict[Hashable, int] = {}
    best_cost = float("inf")
    explored = 0

    def branch(index: int, assignment: Dict[Hashable, int], cost: float) -> None:
        nonlocal best_assignment, best_cost, explored
        explored += 1
        if cost >= best_cost or explored > time_budget_nodes:
            return
        if index == len(ordered):
            best_cost = cost
            best_assignment = dict(assignment)
            return
        node = ordered[index]
        if node in problem.fixed_colors:
            # Colored from the start, so each free neighbour already paid
            # for its edge to this node; edges between fixed nodes are a
            # constant.
            branch(index + 1, assignment, cost)
            return
        costs = _mask_costs(problem, neighbours[node], assignment)
        for color in sorted(ALL_COLORS, key=costs.__getitem__):
            assignment[node] = color
            branch(index + 1, assignment, cost + costs[color])
            del assignment[node]

    branch(0, dict(problem.fixed_colors), 0.0)
    if not best_assignment:
        # Budget exhausted before any leaf: fall back to greedy.
        return _color_greedy(problem, adjacency, nodes)
    return {node: best_assignment[node] for node in nodes}


def color_component_greedy(
    problem: ColoringProblem,
    nodes: Sequence[Hashable],
    improvement_passes: int = 2,
) -> Dict[Hashable, int]:
    """Greedily color *nodes*, then run single-node improvement passes."""
    return _color_greedy(problem, problem.adjacency(), nodes, improvement_passes)


def _color_greedy(
    problem: ColoringProblem,
    adjacency: Adjacency,
    nodes: Sequence[Hashable],
    improvement_passes: int = 2,
) -> Dict[Hashable, int]:
    """:func:`color_component_greedy` on a prebuilt *adjacency*."""
    node_set = set(nodes)
    assignment: Dict[Hashable, int] = {
        node: color
        for node, color in problem.fixed_colors.items()
        if node in node_set
    }

    def mask_costs(node: Hashable) -> List[float]:
        return _mask_costs(
            problem,
            ((nbr, kind) for nbr, kind in adjacency[node].items() if nbr != node),
            assignment,
        )

    ordered = _by_degree(adjacency, nodes)
    for node in ordered:
        if node in assignment:
            continue
        costs = mask_costs(node)
        assignment[node] = min(ALL_COLORS, key=lambda c: (costs[c], c))

    for _ in range(improvement_passes):
        improved = False
        for node in ordered:
            if node in problem.fixed_colors:
                continue
            current = assignment[node]
            costs = mask_costs(node)
            best = min(ALL_COLORS, key=lambda c: (costs[c], c))
            if best != current and costs[best] < costs[current]:
                assignment[node] = best
                improved = True
        if not improved:
            break
    return {node: assignment[node] for node in nodes}


def _components(adjacency: Adjacency) -> List[List[Hashable]]:
    """Return the connected components, each found by BFS from its first node."""
    seen: set = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:
            for nbr in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    component.append(nbr)
        components.append(component)
    return components


def solve_coloring(
    problem: ColoringProblem,
    exact_component_limit: int = 14,
) -> Dict[Hashable, int]:
    """Color the whole problem component by component.

    Connected components of the combined graph are independent, so each is
    solved on its own: exactly when it has at most ``exact_component_limit``
    nodes, greedily (with improvement) otherwise.  A node without edges is
    a fixed node and keeps its mask.
    """
    adjacency = problem.adjacency()
    assignment: Dict[Hashable, int] = {}
    for component in _components(adjacency):
        nodes = sorted(component, key=str)
        if len(nodes) <= exact_component_limit:
            assignment.update(_color_exact(problem, adjacency, nodes))
        else:
            assignment.update(_color_greedy(problem, adjacency, nodes))
    return assignment
