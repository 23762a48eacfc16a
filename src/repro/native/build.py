"""Build machinery for the compiled kernels.

The package carries two extensions, each a single C file with no
dependencies beyond the Python headers, so a build is one compiler
invocation -- done either ahead of time (``python setup.py build_ext
--inplace``, ``scripts/build_native.py``, the CI matrix) or lazily on
first import by :func:`repro.native.load_kernel` /
:func:`repro.native.load_check_kernel` when a compiler is present:

* ``_relaxation`` -- the Dijkstra/A* relaxation inner loop;
* ``_checkwork`` -- the incremental-check dirty-vertex neighborhood scan.

The compile uses the interpreter's own toolchain configuration
(``sysconfig``) with fused multiply-add contraction disabled
(``-ffp-contract=off``): the relaxation kernel's bit-exactness contract
requires every floating-point operation to round exactly as the
interpreted loop does, and an FMA contracts two of those roundings into
one (``_checkwork`` is integer-only, but shares the flags so both builds
stay one code path).

Each compile also defines ``KERNEL_SOURCE_DIGEST`` as the sha256 of the C
source (:func:`source_digest`); the module exports it, and the loaders
rebuild a binary whose digest differs from the source beside it, so an
edited kernel never runs as its older binary even when the ABI numbers
match.

The binary lands next to the source inside the package when that directory
is writable (the dev/CI layout); read-only installs fall back to a per-user
cache directory, which the loaders also probe.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from typing import List, Optional

#: Module name of the compiled relaxation (search) kernel.
EXTENSION_NAME = "_relaxation"

#: Module name of the compiled incremental-check scan kernel.
CHECK_EXTENSION_NAME = "_checkwork"

#: Every compiled unit the package carries.
ALL_EXTENSION_NAMES = (EXTENSION_NAME, CHECK_EXTENSION_NAME)


class NativeBuildError(RuntimeError):
    """Raised when a kernel cannot be compiled (no compiler, bad flags...)."""


def extension_filename(name: str = EXTENSION_NAME) -> str:
    """Return the platform binary filename (``<name>.cpython-*.so``)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return name + suffix


def source_path(name: str = EXTENSION_NAME) -> str:
    """Return the absolute path of the kernel's C source."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), name + ".c")


def source_digest(name: str = EXTENSION_NAME) -> Optional[str]:
    """Return the sha256 hex digest of the kernel's C source, or ``None``
    when the source is not there (an install that ships binaries only)."""
    try:
        with open(source_path(name), "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def package_target(name: str = EXTENSION_NAME) -> str:
    """Return the in-package build target path (preferred location)."""
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)), extension_filename(name)
    )


def cache_target(name: str = EXTENSION_NAME) -> str:
    """Return the fallback build target for read-only package directories.

    Scoped per user, interpreter tag and ABI so unrelated environments
    never pick up each other's binaries.
    """
    try:
        scope = f"uid{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        scope = "user"
    tag = f"repro-native-{scope}-py{sys.version_info[0]}.{sys.version_info[1]}"
    return os.path.join(tempfile.gettempdir(), tag, extension_filename(name))


def candidate_paths(name: str = EXTENSION_NAME) -> List[str]:
    """Return every path the loader should probe for a built kernel."""
    return [package_target(name), cache_target(name)]


def _compiler_command(target: str, name: str, digest: str) -> List[str]:
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    command = cc.split()
    command += ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
    command += [f'-DKERNEL_SOURCE_DIGEST="{digest}"']
    include = sysconfig.get_paths().get("include")
    if include:
        command += ["-I", include]
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        command += ["-undefined", "dynamic_lookup"]
    command += [source_path(name), "-o", target]
    return command


def build_extension(target: Optional[str] = None, name: str = EXTENSION_NAME) -> str:
    """Compile the *name* kernel and return the binary's path.

    Writes to a temporary file first and renames atomically, so concurrent
    builders (parallel pytest workers, forked pool workers racing on a cold
    cache) never import a half-written binary.  Raises
    :class:`NativeBuildError` on any failure.
    """
    digest = source_digest(name)
    if digest is None:
        raise NativeBuildError(f"kernel source missing: {source_path(name)}")
    if target is None:
        target = package_target(name)
        if not os.access(os.path.dirname(target), os.W_OK):
            target = cache_target(name)
    directory = os.path.dirname(target)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise NativeBuildError(f"cannot create build directory {directory}: {exc}")
    staging = target + f".build-{os.getpid()}"
    command = _compiler_command(staging, name, digest)
    try:
        completed = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=300,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"compiler invocation failed: {exc}")
    if completed.returncode != 0:
        output = completed.stdout.decode(errors="replace") if completed.stdout else ""
        raise NativeBuildError(
            f"compiler exited with {completed.returncode}: {' '.join(command)}\n{output}"
        )
    try:
        os.replace(staging, target)
    except OSError as exc:
        raise NativeBuildError(f"cannot move built kernel into place: {exc}")
    return target
