"""Utility data structures and helpers shared by the routing substrates.

The routers in :mod:`repro` lean on a small number of classic data
structures -- an updatable priority queue for Dijkstra-style searches,
wall-clock timers for the runtime columns of the experiment tables, and a
seeded random-number helper so that every synthetic benchmark is
reproducible bit-for-bit.
"""

from repro.utils.priority_queue import UpdatablePriorityQueue
from repro.utils.env import env_flag, env_int
from repro.utils.timer import Timer
from repro.utils.rng import SeededRNG
from repro.utils.logging import get_logger, set_verbosity

__all__ = [
    "UpdatablePriorityQueue",
    "Timer",
    "SeededRNG",
    "env_flag",
    "env_int",
    "get_logger",
    "set_verbosity",
]
