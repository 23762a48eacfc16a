"""The slice-built neighbour table against a per-vertex reference loop.

:func:`repro.grid.routing_grid.build_neighbor_table` fills the table with
a few ``array`` slice assignments.  The reference below is the plain
per-vertex triple loop, kept here only as the oracle: on every shape --
degenerate ones (one vertex, one row, one column, one layer), random
non-square ones, and the grids the tests and the benchmark route -- both
must produce the same bytes.
"""

import random
from array import array

from repro.bench import synthetic
from repro.grid import RoutingGrid
from repro.grid.routing_grid import NUM_DIRECTIONS, build_neighbor_table

from tests.test_gr import golden_dense_spec, golden_sparse_spec
from tests.test_grid import make_design


def reference_neighbor_table(num_layers, num_cols, num_rows):
    """One vertex at a time, every direction checked against the bounds."""
    plane = num_cols * num_rows
    table = [-1] * (NUM_DIRECTIONS * num_layers * plane)
    index = 0
    for layer in range(num_layers):
        for col in range(num_cols):
            for row in range(num_rows):
                base = NUM_DIRECTIONS * index
                if col + 1 < num_cols:
                    table[base] = index + num_rows
                if col > 0:
                    table[base + 1] = index - num_rows
                if row + 1 < num_rows:
                    table[base + 2] = index + 1
                if row > 0:
                    table[base + 3] = index - 1
                if layer + 1 < num_layers:
                    table[base + 4] = index + plane
                if layer > 0:
                    table[base + 5] = index - plane
                index += 1
    return array("i", table)


def assert_matches_reference(num_layers, num_cols, num_rows):
    table = build_neighbor_table(num_layers, num_cols, num_rows)
    assert table.typecode == "i"
    expected = reference_neighbor_table(num_layers, num_cols, num_rows)
    assert table.tobytes() == expected.tobytes(), (num_layers, num_cols, num_rows)


def test_degenerate_shapes_match_reference():
    for shape in (
        (1, 1, 1),  # one vertex: every slot -1
        (1, 7, 1),  # a single row
        (1, 1, 7),  # a single column
        (3, 1, 1),  # a via stack
        (1, 5, 3),  # a single layer
        (4, 2, 2),
        (2, 3, 9),  # non-square
        (5, 8, 2),
    ):
        assert_matches_reference(*shape)


def test_random_shapes_match_reference(rng_rounds):
    rng = random.Random(20250519)
    for _ in range(rng_rounds):
        assert_matches_reference(rng.randint(1, 6), rng.randint(1, 14), rng.randint(1, 14))


def test_routed_grids_match_reference():
    """The unit-test grid and the benchmark's dense and sparse grids."""
    designs = [
        make_design(),
        synthetic.generate_design(golden_dense_spec(1910)),
        synthetic.generate_design(golden_sparse_spec(1910)),
    ]
    shapes = []
    for design in designs:
        grid = RoutingGrid(design)
        shape = (grid.num_layers, grid.num_cols, grid.num_rows)
        shapes.append(shape)
        assert grid.neighbor_table().tobytes() == reference_neighbor_table(*shape).tobytes()
        # Built once: later calls return the same table.
        assert grid.neighbor_table() is grid.neighbor_table()
    # The sparse benchmark grid: 84,100 vertices.
    assert shapes[-1] == (4, 145, 145)
