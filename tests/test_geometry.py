"""Tests for the integer geometry kernel."""

from hypothesis import given, strategies as st

from repro.geometry import (
    GridPoint,
    Interval,
    Orientation,
    Point,
    Rect,
    Transform,
)

coords = st.integers(min_value=-1000, max_value=1000)


class TestPoint:
    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_distance(Point(3, 4)) == 7

    def test_chebyshev_distance(self):
        assert Point(0, 0).chebyshev_distance(Point(3, 4)) == 4

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_iteration_and_tuple(self):
        assert tuple(Point(5, 6)) == (5, 6)
        assert Point(5, 6).as_tuple() == (5, 6)

    def test_points_are_hashable_and_ordered(self):
        assert len({Point(1, 1), Point(1, 1), Point(2, 1)}) == 2
        assert Point(1, 1) < Point(1, 2) < Point(2, 0)

    @given(coords, coords, coords, coords)
    def test_manhattan_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.manhattan_distance(b) == b.manhattan_distance(a)
        assert a.manhattan_distance(a) == 0


class TestGridPoint:
    def test_neighbor(self):
        assert GridPoint(0, 1, 2).neighbor(dcol=1) == GridPoint(0, 2, 2)
        assert GridPoint(1, 1, 2).neighbor(dlayer=-1, drow=3) == GridPoint(0, 1, 5)

    def test_distances(self):
        a, b = GridPoint(0, 0, 0), GridPoint(2, 3, 4)
        assert a.planar_distance(b) == 7
        assert a.distance(b, via_weight=2) == 11

    def test_same_layer(self):
        assert GridPoint(1, 0, 0).same_layer(GridPoint(1, 5, 5))
        assert not GridPoint(1, 0, 0).same_layer(GridPoint(2, 0, 0))


class TestInterval:
    def test_normalises_order(self):
        interval = Interval(7, 3)
        assert (interval.lo, interval.hi) == (3, 7)

    def test_contains_and_overlap(self):
        interval = Interval(2, 5)
        assert interval.contains(2) and interval.contains(5)
        assert not interval.contains(6)
        assert interval.overlaps(Interval(5, 9))
        assert not interval.overlaps(Interval(6, 9))

    def test_distance(self):
        assert Interval(0, 2).distance_to(Interval(5, 7)) == 3
        assert Interval(0, 5).distance_to(Interval(3, 7)) == 0

    def test_intersection_union(self):
        assert Interval(0, 4).intersection(Interval(2, 8)) == Interval(2, 4)
        assert Interval(0, 4).intersection(Interval(6, 8)) is None
        assert Interval(0, 2).union_span(Interval(6, 8)) == Interval(0, 8)

    @given(coords, coords, coords, coords)
    def test_overlap_symmetry(self, a, b, c, d):
        first, second = Interval.from_endpoints(a, b), Interval.from_endpoints(c, d)
        assert first.overlaps(second) == second.overlaps(first)
        assert first.distance_to(second) == second.distance_to(first)

    @given(coords, coords, st.integers(min_value=0, max_value=50))
    def test_expanded_contains_original(self, a, b, amount):
        interval = Interval.from_endpoints(a, b)
        assert interval.expanded(amount).contains_interval(interval)


class TestRect:
    def test_normalises_corners(self):
        rect = Rect(10, 10, 2, 4)
        assert (rect.xlo, rect.ylo, rect.xhi, rect.yhi) == (2, 4, 10, 10)

    def test_dimensions(self):
        rect = Rect(0, 0, 4, 6)
        assert rect.width == 4 and rect.height == 6 and rect.area == 24
        assert rect.center == Point(2, 3)

    def test_contains(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains_point(Point(0, 10))
        assert rect.contains_rect(Rect(2, 2, 8, 8))
        assert not rect.contains_rect(Rect(2, 2, 11, 8))

    def test_overlap_vs_strict(self):
        a, b = Rect(0, 0, 4, 4), Rect(4, 0, 8, 4)
        assert a.overlaps(b)
        assert not a.overlaps_strictly(b)

    def test_distance_to(self):
        assert Rect(0, 0, 2, 2).distance_to(Rect(5, 0, 7, 2)) == 3
        assert Rect(0, 0, 2, 2).distance_to(Rect(5, 6, 7, 8)) == 4
        assert Rect(0, 0, 4, 4).distance_to(Rect(2, 2, 6, 6)) == 0

    def test_intersection_and_union(self):
        a, b = Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)
        assert a.intersection(b) == Rect(2, 2, 4, 4)
        assert a.union_bbox(b) == Rect(0, 0, 6, 6)
        assert a.intersection(Rect(5, 5, 6, 6)) is None

    def test_bounding(self):
        assert Rect.bounding([Rect(0, 0, 1, 1), Rect(5, 5, 6, 7)]) == Rect(0, 0, 6, 7)

    @given(coords, coords, coords, coords, st.integers(min_value=0, max_value=20))
    def test_expanded_contains(self, x1, y1, x2, y2, amount):
        rect = Rect(x1, y1, x2, y2)
        assert rect.expanded(amount).contains_rect(rect)

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_distance_symmetry(self, a, b, c, d, e, f, g, h):
        r1, r2 = Rect(a, b, c, d), Rect(e, f, g, h)
        assert r1.distance_to(r2) == r2.distance_to(r1)
        assert (r1.distance_to(r2) == 0) == r1.overlaps(r2)


class TestTransform:
    def test_north_is_translation(self):
        transform = Transform(Point(10, 20), Orientation.N, width=8, height=4)
        assert transform.apply_to_point(Point(1, 2)) == Point(11, 22)

    def test_south_flips_both(self):
        transform = Transform(Point(0, 0), Orientation.S, width=8, height=4)
        assert transform.apply_to_point(Point(1, 1)) == Point(7, 3)

    def test_fn_mirrors_x(self):
        transform = Transform(Point(0, 0), Orientation.FN, width=8, height=4)
        assert transform.apply_to_point(Point(1, 1)) == Point(7, 1)

    def test_rotation_swaps_size(self):
        transform = Transform(Point(0, 0), Orientation.W, width=8, height=4)
        assert transform.placed_size() == Point(4, 8)

    def test_rect_transform_stays_normalised(self):
        transform = Transform(Point(5, 5), Orientation.S, width=10, height=10)
        rect = transform.apply_to_rect(Rect(1, 1, 3, 4))
        assert rect.xlo <= rect.xhi and rect.ylo <= rect.yhi
        assert rect == Rect(12, 11, 14, 14)

