"""Tests for the shared utility data structures."""

import pytest
from hypothesis import given, strategies as st

from repro.utils import SeededRNG, Timer, UpdatablePriorityQueue


class TestUpdatablePriorityQueue:
    def test_orders_by_priority(self):
        queue = UpdatablePriorityQueue()
        queue.push("b", 2)
        queue.push("a", 1)
        queue.push("c", 3)
        assert [queue.pop()[0] for _ in range(3)] == ["a", "b", "c"]

    def test_decrease_key(self):
        queue = UpdatablePriorityQueue()
        queue.push("x", 10)
        queue.push("y", 5)
        queue.push("x", 1)
        assert queue.pop() == ("x", 1)
        assert queue.pop() == ("y", 5)

    def test_push_if_better(self):
        queue = UpdatablePriorityQueue()
        assert queue.push_if_better("a", 5)
        assert not queue.push_if_better("a", 7)
        assert queue.push_if_better("a", 2)
        assert queue.priority_of("a") == 2

    def test_pop_empty_raises(self):
        with pytest.raises(KeyError):
            UpdatablePriorityQueue().pop()

    def test_discard_and_contains(self):
        queue = UpdatablePriorityQueue()
        queue.push("a", 1)
        assert "a" in queue
        assert queue.discard("a")
        assert "a" not in queue
        assert not queue.discard("a")

    def test_peek_does_not_remove(self):
        queue = UpdatablePriorityQueue()
        queue.push("a", 1)
        assert queue.peek() == ("a", 1)
        assert len(queue) == 1

    def test_ties_are_fifo(self):
        queue = UpdatablePriorityQueue()
        queue.push("first", 1)
        queue.push("second", 1)
        assert queue.pop()[0] == "first"

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(-100, 100)), max_size=60))
    def test_pops_in_nondecreasing_priority(self, operations):
        queue = UpdatablePriorityQueue()
        reference = {}
        for key, priority in operations:
            queue.push(key, priority)
            reference[key] = priority
        popped = []
        while queue:
            item, priority = queue.pop()
            assert reference.pop(item) == priority
            popped.append(priority)
        assert popped == sorted(popped)
        assert not reference


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
