"""The colouring solvers against brute force on seeded random problems.

:func:`~repro.baselines.coloring.color_component_exact` is checked against
an enumeration of all ``3**n`` mask assignments of the free nodes, for
``n <= 8``; both per-component solvers must keep every fixed colour; and
:func:`~repro.baselines.coloring.solve_coloring`, which solves components
of at most ``exact_component_limit`` nodes exactly, must never cost more
than the greedy solver on such a component.  Every solver is scored with
:meth:`~repro.baselines.coloring.ColoringProblem.cost_of`, which counts each
node pair once, a conflict over a stitch.

:func:`random_coloring_problem` also feeds the ``solve_coloring`` pins of
``tests/test_golden_solutions.py``.

Run longer campaigns with ``--rng-rounds=200`` (the CI nightly job does).
"""

import itertools
import random

import pytest

from repro.baselines import (
    ColoringProblem,
    color_component_exact,
    color_component_greedy,
    solve_coloring,
)


def _add_component(rng, problem, nodes, fixed_fraction):
    """Connect *nodes* with random conflict/stitch edges and fix some colours.

    A random spanning tree keeps the component connected.  Extra edges
    repeat some pairs (in either orientation) and put a conflict and a
    stitch on the same pair.
    """
    edges = [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, len(nodes))]
    if len(nodes) > 1:
        edges += [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(0, 2 * len(nodes)))]
    for a, b in edges:
        roll = rng.random()
        if roll < 0.5:
            problem.conflict_edges.append((a, b))
        elif roll < 0.85:
            problem.stitch_edges.append((a, b))
        else:
            problem.conflict_edges.append((a, b))
            problem.stitch_edges.append((b, a))
        if rng.random() < 0.1:
            repeat = problem.conflict_edges if rng.random() < 0.5 else problem.stitch_edges
            repeat.append((b, a) if rng.random() < 0.5 else (a, b))
    for node in nodes:
        if rng.random() < fixed_fraction:
            problem.fixed_colors[node] = rng.randrange(3)


def random_coloring_problem(seed):
    """Return a seeded problem with components on both sides of the exact limit.

    It holds one component of 2-14 nodes, one of 15-24, up to three more of
    1-24, and one to three isolated fixed nodes.  Node ids are
    ``(str, int)`` pairs like the decomposer's unit ids.
    """
    rng = random.Random(seed)
    problem = ColoringProblem()
    sizes = [rng.randint(2, 14), rng.randint(15, 24)]
    sizes += [rng.randint(1, 24) for _ in range(rng.randint(0, 3))]
    rng.shuffle(sizes)
    start = 0
    for size in sizes:
        _add_component(rng, problem, [("n", start + i) for i in range(size)], 0.15)
        start += size
    for index in range(rng.randint(1, 3)):
        problem.fixed_colors[("iso", index)] = rng.randrange(3)
    return problem


def small_component(rng, size):
    """Return ``(problem, nodes)``: one connected component of *size* nodes."""
    problem = ColoringProblem()
    nodes = [("u", i) for i in range(size)]
    _add_component(rng, problem, nodes, 0.25 if size > 1 else 1.0)
    return problem, problem.nodes()


def brute_force_cost(problem, nodes):
    """Return the least objective over every mask assignment of the free *nodes*."""
    free = [node for node in nodes if node not in problem.fixed_colors]
    best = None
    for colors in itertools.product(range(3), repeat=len(free)):
        assignment = dict(problem.fixed_colors)
        assignment.update(zip(free, colors))
        cost = problem.cost_of(assignment)
        if best is None or cost < best:
            best = cost
    return best


def complete(problem, assignment):
    """Return *assignment* with the problem's fixed colours filled in."""
    return {**problem.fixed_colors, **assignment}


def test_count_scores_each_pair_once_conflict_over_stitch():
    problem = ColoringProblem(
        conflict_edges=[("a", "b"), ("c", "d"), ("d", "c")],
        stitch_edges=[("a", "b"), ("b", "c"), ("c", "b")],
    )
    same = {node: 0 for node in "abcd"}
    assert problem.count(same) == (2, 0)
    assert problem.cost_of(same) == 2 * problem.conflict_weight
    # a-b is a conflict, so its stitch never counts; b-c is one stitch.
    split = {"a": 0, "b": 1, "c": 2, "d": 0}
    assert problem.count(split) == (0, 1)
    assert problem.cost_of(split) == problem.stitch_weight
    # An uncoloured node scores nothing.
    assert problem.count({"a": 0, "b": 0}) == (1, 0)


@pytest.mark.parametrize("seed", [3, 71])
def test_exact_is_optimal_against_brute_force(seed, rng_rounds):
    rng = random.Random(seed)
    for _ in range(rng_rounds):
        problem, nodes = small_component(rng, rng.randint(1, 8))
        exact = color_component_exact(problem, nodes)
        assert set(exact) == set(nodes)
        assert problem.cost_of(complete(problem, exact)) == brute_force_cost(problem, nodes)


@pytest.mark.parametrize("seed", [5, 89])
def test_both_solvers_keep_fixed_colors(seed, rng_rounds):
    rng = random.Random(seed)
    for _ in range(rng_rounds):
        problem, nodes = small_component(rng, rng.randint(1, 20))
        for solver in (color_component_exact, color_component_greedy):
            assignment = solver(problem, nodes)
            assert set(assignment) == set(nodes)
            for node in nodes:
                if node in problem.fixed_colors:
                    assert assignment[node] == problem.fixed_colors[node], solver.__name__


@pytest.mark.parametrize("seed", [11, 97])
def test_solve_coloring_beats_greedy_on_exact_size_components(seed, rng_rounds):
    rng = random.Random(seed)
    for _ in range(rng_rounds):
        problem, nodes = small_component(rng, rng.randint(1, 14))
        solved = solve_coloring(problem)
        assert set(solved) == set(nodes)
        greedy = color_component_greedy(problem, nodes)
        assert problem.cost_of(solved) <= problem.cost_of(complete(problem, greedy))


def test_random_problems_cover_both_solvers():
    """Every pinned problem has components on both sides of the exact limit."""
    for seed in range(8):
        problem = random_coloring_problem(seed)
        adjacency = {node: set() for node in problem.nodes()}
        for a, b in problem.conflict_edges + problem.stitch_edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        sizes, seen = [], set()
        for node in adjacency:
            if node in seen:
                continue
            stack, size = [node], 0
            seen.add(node)
            while stack:
                size += 1
                for nbr in adjacency[stack.pop()]:
                    if nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
            sizes.append(size)
        assert min(sizes) == 1 and max(sizes) > 14
        assert any(2 <= size <= 14 for size in sizes)
