"""Host-speed calibration: scale timings to a host of fixed speed.

On a shared host, co-tenant load slows the whole CPU by 1.3-1.9x for
tens of seconds to minutes at a time, which a median over one run cannot
remove.  A pure-Python yardstick is timed after every sample, and each
sample is divided by the slow-down the yardstick shows around it: its
time there over :data:`REFERENCE_S`.  Reported times are thus seconds on a
host where the yardstick takes :data:`REFERENCE_S` (an idle Intel Xeon at
2.1 GHz).  The yardstick does not touch ``repro``: a change to the router
cannot move it.
"""

from __future__ import annotations

import heapq
import random
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: Yardstick time, in seconds, on the reference host.
REFERENCE_S = 0.0225

#: Grid side of the yardstick's shortest-path search.
GRID = 100

#: Yardstick repeats per measurement; the fastest one counts.
REPEATS = 3

#: Yardstick measurements on each side of a sample whose median scales it.
#: One measurement can catch a burst of load that the sample did not see;
#: the median of four steps over it and still follows load that lasts
#: seconds.
WINDOW = 2


def yardstick(n: int = GRID) -> int:
    """Seeded Dijkstra on an n x n grid: dicts, sets, tuples and a heap."""
    rng = random.Random(12345)
    weight = {(x, y): rng.randint(1, 9) for x in range(n) for y in range(n)}
    dist = {(0, 0): 0}
    heap = [(0, (0, 0))]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        x, y = node
        for neighbour in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            cost = weight.get(neighbour)
            if cost is None or neighbour in done:
                continue
            candidate = d + cost
            if candidate < dist.get(neighbour, 1 << 60):
                dist[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return max(dist.values())


def measure() -> float:
    """Return the fastest of :data:`REPEATS` yardstick times, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        started = perf_counter()
        yardstick()
        best = min(best, perf_counter() - started)
    return best


class HostSpeed:
    """Records timed samples with the yardstick measured between them.

    Call :meth:`record` right after each sample; :meth:`scaled` then gives
    a metric's samples at reference host speed.
    """

    def __init__(self) -> None:
        self.marks: List[float] = [measure()]
        #: ``name -> [(raw seconds, index of the mark just before it)]``
        self.samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)

    def record(self, name: str, raw_s: float) -> None:
        """Keep *raw_s* under *name*, then time the yardstick."""
        self.samples[name].append((raw_s, len(self.marks) - 1))
        self.marks.append(measure())

    def factor(self, mark: int) -> float:
        """Host slow-down around the sample that follows *mark*."""
        window = self.marks[max(0, mark - WINDOW + 1):mark + WINDOW + 1]
        return statistics.median(window) / REFERENCE_S

    def raw(self, name: str) -> List[float]:
        return [raw_s for raw_s, _ in self.samples[name]]

    def scaled(self, name: str, exponent: float = 1.0) -> List[float]:
        """Return the samples of *name* at reference host speed.

        Each sample is divided by the slow-down raised to *exponent*: 1 for
        code that slows down as much as the yardstick, less for code that
        slows down less.
        """
        return [
            raw_s / self.factor(mark) ** exponent for raw_s, mark in self.samples[name]
        ]

    def report_lines(self) -> List[str]:
        factors = sorted(self.factor(mark) for mark in range(len(self.marks) - 1))
        lines = [
            f"host slow-down vs reference: median {statistics.median(factors):.3f} "
            f"(min {factors[0]:.3f}, max {factors[-1]:.3f}, n={len(factors)})"
        ]
        for name in self.samples:
            lines.append(f"  raw {name}: median {statistics.median(self.raw(name)):.4f}")
        return lines
