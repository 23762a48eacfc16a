"""Acceleration tier registry and runtime gates.

The search/cost hot paths run on a two-tier stack, both tiers producing
bit-identical results (pinned by ``tests/test_golden_solutions.py``):

``native``
    The compiled relaxation kernel (:mod:`repro.native`): the whole
    Dijkstra/A* inner loop of :meth:`repro.search.SearchCore.run` executes
    in C over the flat label buffers, computing the congestion and colour
    pressure terms inline from the grid's live buffers.  Needs only a
    built extension -- numpy is not involved.
``buffered`` (the default engine path)
    The zero-allocation Python loop over epoch-stamped flat buffers, with
    the expand closures reading grid state lazily per successor and the
    O(num_vertices) kernels (color-pressure update, heuristic table)
    vectorised through numpy when importable; every vectorised kernel has
    a pure-Python twin producing bit-identical results (same IEEE-754
    operations in the same order) used on numpy-free installs.

Gates are process-global and runtime-switchable:

* ``REPRO_PURE_PYTHON=1`` disables numpy *and* the native kernel at import
  time (the CI fallback leg);
* ``REPRO_NO_NATIVE=1`` disables only the native search kernel;
* ``REPRO_NO_NATIVE_CHECK=1`` disables only the native check kernel
  (``repro.native._checkwork``, the incremental DRC/conflict neighborhood
  scan -- see :func:`get_check_kernel` / :func:`active_check_tier`);
* :func:`set_numpy_enabled` / :func:`set_native_enabled` /
  :func:`set_check_native_enabled` toggle at runtime (the differential
  tests force lower tiers on a fully-equipped interpreter and compare).

Hot paths call :func:`get_numpy` / :func:`get_native_kernel` once per
kernel invocation and branch on ``None``, so toggling takes effect
immediately.
"""

from __future__ import annotations

from typing import Optional

from repro.utils.env import env_flag

try:  # pragma: no cover - exercised indirectly by both CI legs
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy-free environments
    _numpy = None

#: Tier names, fastest first (:func:`active_search_tier` reports the active one).
SEARCH_TIERS = ("native", "buffered")

#: Tier names of the incremental-check path, fastest first.
CHECK_TIERS = ("native", "buffered", "pure")

_PURE_PYTHON = env_flag("REPRO_PURE_PYTHON", False)

_enabled = _numpy is not None and not _PURE_PYTHON
_native_enabled = not _PURE_PYTHON and not env_flag("REPRO_NO_NATIVE", False)
_check_native_enabled = not _PURE_PYTHON and not env_flag("REPRO_NO_NATIVE_CHECK", False)


def have_numpy() -> bool:
    """Return ``True`` when numpy is importable (regardless of the gate)."""
    return _numpy is not None


def numpy_enabled() -> bool:
    """Return ``True`` when the vectorised kernels are active."""
    return _enabled


def set_numpy_enabled(enabled: bool) -> bool:
    """Enable/disable the vectorised kernels; return the previous setting.

    Enabling is a no-op when numpy is not importable.  Tests use this to
    force the pure-Python fallback and differentially compare the two.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled) and _numpy is not None
    return previous


def get_numpy() -> Optional[object]:
    """Return the numpy module when acceleration is on, else ``None``."""
    return _numpy if _enabled else None


# ----------------------------------------------------------------------
# Native kernel tier
# ----------------------------------------------------------------------

def native_available() -> bool:
    """Return ``True`` when a usable kernel binary is loaded/loadable.

    Unlike :func:`get_native_kernel` this ignores the runtime gates -- it
    answers "could the native tier run here at all?" (bench/CI reporting).
    """
    from repro.native import load_kernel

    return load_kernel() is not None


def native_enabled() -> bool:
    """Return ``True`` when the native tier gate is open (kernel may still
    be unbuilt -- combine with :func:`native_available`)."""
    return _native_enabled


def set_native_enabled(enabled: bool) -> bool:
    """Enable/disable the native kernel tier; return the previous setting.

    Tests and benchmarks use this to force the buffered tier on an
    interpreter that has the extension built, then compare bit for bit.
    """
    global _native_enabled
    previous = _native_enabled
    _native_enabled = bool(enabled)
    return previous


def get_native_kernel() -> Optional[object]:
    """Return the loaded kernel module when the native tier is active.

    ``None`` when gated off (env overrides, :func:`set_native_enabled`)
    or when no binary could be loaded or built; the numpy gate does not
    matter.  The underlying load attempt is made once per process and
    cached either way.
    """
    if not _native_enabled:
        return None
    from repro.native import load_kernel

    return load_kernel()


# ----------------------------------------------------------------------
# Check-kernel tier (incremental DRC / conflict neighborhood scans)
# ----------------------------------------------------------------------

def check_native_available() -> bool:
    """Return ``True`` when a usable check-kernel binary is loaded/loadable.

    Ignores the runtime gates, like :func:`native_available` -- it answers
    "could the native check tier run here at all?" for bench/CI reporting.
    """
    from repro.native import load_check_kernel

    return load_check_kernel() is not None


def check_native_enabled() -> bool:
    """Return ``True`` when the native check-kernel gate is open."""
    return _check_native_enabled


def set_check_native_enabled(enabled: bool) -> bool:
    """Enable/disable the native check kernel; return the previous setting.

    The differential suites force the numpy and pure fallbacks on an
    interpreter that has the extension built, then compare reports.
    """
    global _check_native_enabled
    previous = _check_native_enabled
    _check_native_enabled = bool(enabled)
    return previous


def get_check_kernel() -> Optional[object]:
    """Return the loaded check-kernel module when its tier is active.

    ``None`` when gated off (``REPRO_NO_NATIVE_CHECK``,
    :func:`set_check_native_enabled`), when no binary could be loaded or
    built, or when the numpy tier is off (the Python wrapper stages the
    kernel's output through numpy arrays).
    The load attempt is made once per process and cached either way.
    """
    if not _check_native_enabled or not _enabled:
        return None
    from repro.native import load_check_kernel

    return load_check_kernel()


def active_check_tier() -> str:
    """Return the name of the fastest incremental-check tier active.

    ``native`` is the compiled ``_checkwork`` neighborhood scan,
    ``buffered-numpy`` the broadcast scan over the flat mirrors, and
    ``buffered-python`` the original pure dict/set loops (always the
    differential oracle's path).
    """
    if get_check_kernel() is not None:
        return "native"
    return "buffered-numpy" if _enabled else "buffered-python"


def active_search_tier() -> str:
    """Return the name of the fastest search tier currently active."""
    if get_native_kernel() is not None:
        return "native"
    return "buffered-numpy" if _enabled else "buffered-python"
