"""Acceleration tier registry and runtime gates.

The search and the incremental conflict checker's neighbourhood scan each
run on a two-tier stack, both tiers producing bit-identical results
(pinned by ``tests/test_golden_solutions.py`` and
``tests/test_check_kernels.py``); the incremental DRC side keeps only a
shorts tally and runs no scan:

``native``
    A compiled C kernel (:mod:`repro.native`).  For the search, the whole
    Dijkstra/A* inner loop of :meth:`repro.search.SearchCore.run` executes
    in C over the flat label buffers, computing the congestion and colour
    pressure terms inline from the grid's live buffers, and the same
    module stamps the colour pressure of route commits and releases
    (``stamp_pressure``, behind the search gate); for the check, the
    ``_checkwork`` double loop filters the dirty-vertex probes.
``python``
    The pure-Python loops: the zero-allocation search loop over
    epoch-stamped flat buffers, with the expand closures reading grid
    state lazily per successor, and the check scan's double loop
    (:func:`repro.check.kernels.scan_hits`).  They are the differential
    reference for the native tier.

Gates are process-global and runtime-switchable:

* ``REPRO_PURE_PYTHON=1`` closes both native kernels at import time (the
  CI fallback leg);
* :func:`set_native_enabled` / :func:`set_check_native_enabled` toggle
  each kernel at runtime (the differential tests force the Python tier on
  a fully-equipped interpreter and compare).

Hot paths call :func:`get_native_kernel` / :func:`get_check_kernel` once
per kernel invocation and branch on ``None``, so toggling takes effect
immediately.
"""

from __future__ import annotations

from typing import Optional

from repro.utils.env import env_flag

#: Tier names, fastest first; :func:`active_search_tier` and
#: :func:`active_check_tier` report one of them.
TIERS = ("native", "python")

_PURE_PYTHON = env_flag("REPRO_PURE_PYTHON", False)

_native_enabled = not _PURE_PYTHON
_check_native_enabled = not _PURE_PYTHON


def numpy_enabled() -> bool:
    """Return ``False``: no tier uses numpy (kept for perfbench's report)."""
    return False


# ----------------------------------------------------------------------
# Native search kernel
# ----------------------------------------------------------------------

def native_available() -> bool:
    """Return ``True`` when a usable kernel binary is loaded/loadable.

    Unlike :func:`get_native_kernel` this ignores the runtime gates -- it
    answers "could the native tier run here at all?" (bench/CI reporting).
    """
    from repro.native import load_kernel

    return load_kernel() is not None


def set_native_enabled(enabled: bool) -> bool:
    """Enable/disable the native kernel tier; return the previous setting.

    Tests and benchmarks use this to force the Python tier on an
    interpreter that has the extension built, then compare bit for bit.
    """
    global _native_enabled
    previous = _native_enabled
    _native_enabled = bool(enabled)
    return previous


def get_native_kernel() -> Optional[object]:
    """Return the loaded kernel module when the native tier is active.

    ``None`` when gated off (``REPRO_PURE_PYTHON``,
    :func:`set_native_enabled`) or when no binary could be loaded or
    built.  The underlying load attempt is made once per process and
    cached either way.
    """
    if not _native_enabled:
        return None
    from repro.native import load_kernel

    return load_kernel()


def active_search_tier() -> str:
    """Return the name of the fastest search tier currently active."""
    return TIERS[0] if get_native_kernel() is not None else TIERS[1]


# ----------------------------------------------------------------------
# Check kernel (incremental conflict neighborhood scan)
# ----------------------------------------------------------------------

def check_native_available() -> bool:
    """Return ``True`` when a usable check-kernel binary is loaded/loadable.

    Ignores the runtime gates, like :func:`native_available` -- it answers
    "could the native check tier run here at all?" for bench/CI reporting.
    """
    from repro.native import load_check_kernel

    return load_check_kernel() is not None


def set_check_native_enabled(enabled: bool) -> bool:
    """Enable/disable the native check kernel; return the previous setting.

    The differential suites force the pure loops on an interpreter that
    has the extension built, then compare reports.
    """
    global _check_native_enabled
    previous = _check_native_enabled
    _check_native_enabled = bool(enabled)
    return previous


def get_check_kernel() -> Optional[object]:
    """Return the loaded check-kernel module when its tier is active.

    ``None`` when gated off (``REPRO_PURE_PYTHON``,
    :func:`set_check_native_enabled`) or when no binary could be loaded or
    built.  The load attempt is made once per process and cached either
    way.
    """
    if not _check_native_enabled:
        return None
    from repro.native import load_check_kernel

    return load_check_kernel()


def active_check_tier() -> str:
    """Return the name of the fastest incremental-check tier active.

    ``native`` is the compiled ``_checkwork`` neighborhood scan, ``python``
    its loop in Python (the differential reference).
    """
    return TIERS[0] if get_check_kernel() is not None else TIERS[1]
