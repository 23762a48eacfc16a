"""Tests for the shared utility helpers."""

import pytest

from repro.utils import SeededRNG, Timer


class TestTimers:
    def test_timer_context_manager(self):
        with Timer() as timer:
            sum(range(100))
        assert timer.elapsed >= 0.0

    def test_timer_requires_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestSeededRNG:
    def test_deterministic(self):
        a, b = SeededRNG(42), SeededRNG(42)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_spawn_is_independent_but_deterministic(self):
        assert SeededRNG(7).spawn(1).randint(0, 1000) == SeededRNG(7).spawn(1).randint(0, 1000)
        assert SeededRNG(7).spawn(1).seed != SeededRNG(7).spawn(2).seed

    def test_pin_count_bounds(self):
        rng = SeededRNG(3)
        counts = [rng.pin_count(2, 6, 0.5) for _ in range(200)]
        assert all(2 <= count <= 6 for count in counts)
        assert any(count > 2 for count in counts)

    def test_pin_count_degenerate_range(self):
        assert SeededRNG(1).pin_count(3, 3) == 3

    def test_grid_point_in_bounds(self):
        rng = SeededRNG(5)
        for _ in range(50):
            x, y = rng.grid_point(10, 20)
            assert 0 <= x < 10 and 0 <= y < 20
