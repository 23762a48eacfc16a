"""The rip-up loop's obstacle-conflict anchor follows a GridPoint set's order.

``ConflictChecker._obstacle_conflicts(member_set_order=True)`` locates a
conflict against a pre-coloured obstacle at the first feature vertex inside
the obstacle's window, in the iteration order of a ``frozenset`` of the
feature's vertices.  The routing digests are pinned to that pick.  The
checker builds the set from ``(layer, col, row)`` tuples, which hash as
:class:`GridPoint` s do.  The reference kept here builds it from
``GridPoint`` s.  Set order follows hashing, so CI runs this file under
two ``PYTHONHASHSEED`` pins.
"""

import pytest

from test_gr import golden_dense_spec

from repro.bench import generate_design, suite_case
from repro.grid import RoutingGrid
from repro.tpl import ConflictChecker, MrTPLRouter


def reference_pick(grid, feature, window):
    """Return the first vertex of *feature* inside *window* in GridPoint-set order."""
    col_lo, col_hi, row_lo, row_hi = window
    members = frozenset([grid.vertex_of(index) for index in feature.members])
    return next(
        (
            vertex
            for vertex in members
            if col_lo <= vertex.col <= col_hi and row_lo <= vertex.row <= row_hi
        ),
        None,
    )


def feature_windows(feature):
    """Return windows over *feature*'s box: the whole box and its four halves."""
    col_lo, col_hi, row_lo, row_hi = feature.box
    col_mid, row_mid = (col_lo + col_hi) // 2, (row_lo + row_hi) // 2
    return [
        (col_lo, col_hi, row_lo, row_hi),
        (col_lo, col_mid, row_lo, row_hi),
        (col_mid, col_hi, row_lo, row_hi),
        (col_lo, col_hi, row_lo, row_mid),
        (col_lo, col_hi, row_mid, row_hi),
    ]


DESIGNS = {
    "dense": lambda: generate_design(golden_dense_spec(1910)),
    "ispd19-test2": lambda: suite_case("ispd19", 2).build(),
}


@pytest.mark.parametrize("design_key", sorted(DESIGNS))
def test_obstacle_pick_follows_the_gridpoint_set(design_key):
    design = DESIGNS[design_key]()
    grid = RoutingGrid(design)
    solution = MrTPLRouter(
        design, grid=grid, use_global_router=False, max_iterations=0
    ).run()
    checker = ConflictChecker(design, grid)
    features = checker.extract_features(solution)
    assert features

    # The design's own obstacles, on every feature.
    real = 0
    for feature in features:
        conflicts = checker._obstacle_conflicts(feature, member_set_order=True)
        windows = checker._obstacle_window_table().get((feature.layer, feature.color), [])
        expected = []
        for name, *window in windows:
            pick = reference_pick(grid, feature, window)
            if pick is not None:
                expected.append((name, pick))
        assert [(c.net_b, c.location) for c in conflicts] == expected
        real += len(conflicts)
    assert real > 0

    # Windows over every feature's own box, so every feature picks.
    for feature in features:
        windows = feature_windows(feature)
        checker._obstacle_windows = {
            (feature.layer, feature.color): [(f"w{i}", *w) for i, w in enumerate(windows)]
        }
        conflicts = checker._obstacle_conflicts(feature, member_set_order=True)
        expected = [reference_pick(grid, feature, window) for window in windows]
        assert None not in expected
        assert [c.location for c in conflicts] == expected
