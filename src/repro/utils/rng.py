"""Deterministic random helpers for the synthetic benchmark generator.

Every benchmark case in :mod:`repro.bench` is produced from an explicit seed
so that the experiment tables are reproducible across runs and machines.
``SeededRNG`` is a thin convenience wrapper around :class:`random.Random`
with a few domain-specific draws (grid coordinates, weighted pin counts).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class SeededRNG:
    """A seeded pseudo-random generator with layout-flavoured helpers."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def randint(self, low: int, high: int) -> int:
        """Return an integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Return a float uniformly drawn from ``[low, high)``."""
        return self._rng.uniform(low, high)

    def random(self) -> float:
        """Return a float in ``[0, 1)``."""
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Return a uniformly chosen element of *seq*."""
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """Return *k* distinct elements of *seq* in random order."""
        return self._rng.sample(seq, k)

    def shuffle(self, seq: List[T]) -> None:
        """Shuffle *seq* in place."""
        self._rng.shuffle(seq)

    def grid_point(self, width: int, height: int) -> Tuple[int, int]:
        """Return a random ``(x, y)`` inside a ``width x height`` grid."""
        return self._rng.randrange(width), self._rng.randrange(height)

    def pin_count(
        self,
        minimum: int = 2,
        maximum: int = 6,
        multi_pin_bias: float = 0.55,
    ) -> int:
        """Draw a net degree.

        ``multi_pin_bias`` is the probability of drawing a net with more than
        two pins; the paper's contribution specifically targets those nets, so
        the synthetic suites keep them frequent.
        """
        if maximum <= minimum:
            return minimum
        if self._rng.random() >= multi_pin_bias:
            return minimum
        return self._rng.randint(minimum + 1, maximum)

    def spawn(self, salt: int) -> "SeededRNG":
        """Return an independent child generator derived from this seed."""
        return SeededRNG(self.seed * 1_000_003 + salt)
