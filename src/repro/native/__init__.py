"""Optional compiled kernels (the top acceleration tiers).

The package holds the C sources of the two hot inner loops -- the
Dijkstra/A* relaxation loop (``_relaxation.c``, PR 6) and the
incremental-check dirty-vertex neighborhood scan (``_checkwork.c``) --
the build machinery (:mod:`repro.native.build`) and the runtime loaders.
Nothing here is required: when an extension is absent and cannot be
built, its loader returns ``None`` and the callers keep running on the
pure-Python tier, bit-identically.

Loading order (per extension):

1. import the extension from the package directory (the ``build_ext
   --inplace`` / wheel layout);
2. probe the per-user cache directory (read-only installs build there);
3. unless auto-build is disabled (``REPRO_NATIVE_AUTOBUILD=0``), compile
   the source once with the interpreter's own toolchain and import the
   result.

A loaded binary is accepted only when its ``KERNEL_ABI_VERSION`` matches
this checkout's expectation and, where the C source is present, its
``KERNEL_SOURCE_DIGEST`` is the sha256 of that source; a stale binary
(older checkout, changed argument contract, edited source) triggers one
rebuild attempt and is otherwise rejected.  The rebuilt binary is
imported from a fresh copy: the process has already loaded the stale one
from the build path, and both the import system and the dynamic loader
would hand that module back again.  Every outcome is cached for the
process lifetime -- a missing compiler costs one failed probe per process
per extension, not one per call.

Tier *selection* (the ``REPRO_PURE_PYTHON`` gate and the runtime toggles)
lives in :mod:`repro.accel`; this module only answers "is there a usable
binary?".
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import shutil
import sys
import tempfile
from typing import Dict, Optional

from repro.native.build import (
    ALL_EXTENSION_NAMES,
    CHECK_EXTENSION_NAME,
    EXTENSION_NAME,
    NativeBuildError,
    build_extension,
    candidate_paths,
    package_target,
    source_digest,
    source_path,
)
from repro.utils.env import env_flag

#: The argument contract of ``_relaxation`` (``run_search``,
#: ``labelled_box`` and ``stamp_pressure``) this checkout's Python wrappers
#: speak; must match the binary's ``KERNEL_ABI_VERSION``.
EXPECTED_ABI_VERSION = 9

#: The argument contract of ``_checkwork.scan_hits``.
EXPECTED_CHECK_ABI_VERSION = 2

#: Auto-build gate: on by default, ``REPRO_NATIVE_AUTOBUILD=0`` restricts
#: the loaders to pre-built binaries.
AUTOBUILD_ENV = "REPRO_NATIVE_AUTOBUILD"


class _LoaderState:
    """Per-extension cached load outcome (module, attempted, error)."""

    __slots__ = ("kernel", "attempted", "error")

    def __init__(self) -> None:
        self.kernel: Optional[object] = None
        self.attempted = False
        self.error: Optional[str] = None


_states: Dict[str, _LoaderState] = {name: _LoaderState() for name in ALL_EXTENSION_NAMES}


def _import_from(path: str, name: str) -> Optional[object]:
    """Import a built kernel binary from an explicit *path*, or ``None``."""
    if not os.path.exists(path):
        return None
    module_name = f"repro.native.{name}"
    try:
        if path == package_target(name):
            # The canonical location imports as a normal submodule (keeps
            # pickling/fork semantics boring).
            importlib.invalidate_caches()
            return importlib.import_module(module_name)
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except ImportError:
        return None


def _import_fresh(path: str, name: str) -> Optional[object]:
    """Import the binary at *path* through a copy this process never loaded.

    Used after rebuilding over a stale binary the process already imported:
    ``sys.modules`` and the dynamic loader (which matches shared objects by
    path) would both return the stale module for the original path.  The
    copy registers as ``repro.native.<name>`` and is deleted once loaded.
    """
    directory = tempfile.mkdtemp(prefix="repro-native-")
    try:
        fresh = os.path.join(directory, os.path.basename(path))
        shutil.copyfile(path, fresh)
        module_name = f"repro.native.{name}"
        spec = importlib.util.spec_from_file_location(module_name, fresh)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[module_name] = module
        return module
    except (ImportError, OSError):
        return None
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _expected_abi(name: str) -> int:
    # Read through the module globals at call time so the test suites can
    # monkeypatch the expectations.
    if name == CHECK_EXTENSION_NAME:
        return EXPECTED_CHECK_ABI_VERSION
    return EXPECTED_ABI_VERSION


def _stale_reason(module: object, name: str) -> Optional[str]:
    """Return why the loaded *name* binary *module* is unusable, or ``None``.

    A binary is stale when its ABI differs from this checkout's
    expectation, or when it was built from other C source than the one
    beside it (no source, as in a binary-only install, skips that check).
    """
    abi = getattr(module, "KERNEL_ABI_VERSION", None)
    if abi != _expected_abi(name):
        return f"ABI {abi}, expected {_expected_abi(name)}"
    digest = source_digest(name)
    if digest is not None and getattr(module, "KERNEL_SOURCE_DIGEST", None) != digest:
        return "built from other source than " + source_path(name)
    return None


def _load(name: str) -> Optional[object]:
    state = _states[name]
    if state.attempted:
        return state.kernel
    state.attempted = True

    stale = False
    for path in candidate_paths(name):
        module = _import_from(path, name)
        if module is not None:
            reason = _stale_reason(module, name)
            if reason is None:
                state.kernel = module
                return state.kernel
            state.error = f"stale kernel at {path}: {reason}"
            stale = True
            break  # stale binary: fall through to a rebuild attempt

    if not env_flag(AUTOBUILD_ENV, True):
        if state.error is None:
            state.error = "no pre-built kernel and auto-build disabled"
        return None
    try:
        built = build_extension(name=name)
    except NativeBuildError as exc:
        state.error = str(exc)
        return None
    module = _import_fresh(built, name) if stale else _import_from(built, name)
    if module is not None and _stale_reason(module, name) is None:
        state.kernel = module
        state.error = None
        return state.kernel
    state.error = f"freshly built kernel unusable at {built}"
    return None


def load_kernel() -> Optional[object]:
    """Return the compiled relaxation kernel, or ``None`` when unavailable.

    The first call does the real work (probe, optionally build); the
    outcome -- either way -- is cached for the process lifetime.
    :func:`reset_loader_state` un-caches it (tests only).
    """
    return _load(EXTENSION_NAME)


def load_check_kernel() -> Optional[object]:
    """Return the compiled check-scan kernel, or ``None`` when unavailable.

    Same probe/build/cache discipline as :func:`load_kernel`, applied to
    ``repro.native._checkwork``.
    """
    return _load(CHECK_EXTENSION_NAME)


def kernel_load_error(name: str = EXTENSION_NAME) -> Optional[str]:
    """Return why the last load attempt of *name* yielded no kernel."""
    return _states[name].error


def reset_loader_state() -> None:
    """Forget every cached load outcome so the next calls probe again.

    Test hook: the forced-fallback suites flip environments and need the
    loaders to re-evaluate.
    """
    for state in _states.values():
        state.kernel = None
        state.attempted = False
        state.error = None


__all__ = [
    "ALL_EXTENSION_NAMES",
    "AUTOBUILD_ENV",
    "CHECK_EXTENSION_NAME",
    "EXPECTED_ABI_VERSION",
    "EXPECTED_CHECK_ABI_VERSION",
    "EXTENSION_NAME",
    "NativeBuildError",
    "build_extension",
    "candidate_paths",
    "kernel_load_error",
    "load_check_kernel",
    "load_kernel",
    "reset_loader_state",
    "source_digest",
    "source_path",
]
