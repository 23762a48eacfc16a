"""Wall-clock timers used for the runtime columns of the experiment tables."""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or restart) the timer."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the timer and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed

