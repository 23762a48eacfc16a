"""Setup script: the project's only packaging metadata.

It declares the ``repro`` package under ``src/`` and the optional compiled
kernels (``repro.native._relaxation`` and ``repro.native._checkwork``), so
``python setup.py build_ext --inplace`` builds them ahead of time.  The
extensions are strictly optional: when one is absent (or the build fails
-- see the ``optional`` flag) the engines and checkers run on the
pure-Python tier with identical results, and
``repro.native.load_kernel`` / ``load_check_kernel`` can still auto-build
them lazily at runtime.  No runtime dependency is needed.

Each extension is compiled with ``KERNEL_SOURCE_DIGEST`` set to the sha256
of its C source, as ``repro.native.build`` does, so the loaders accept the
binaries instead of rebuilding them as built from unknown source.

On offline machines whose setuptools/pip combination cannot build PEP 660
editable wheels (no ``wheel`` package available) use::

    pip install -e . --no-build-isolation --no-use-pep517
"""

import hashlib

from setuptools import Extension, find_packages, setup


def _kernel(name: str) -> Extension:
    source = f"src/repro/native/{name}.c"
    with open(source, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return Extension(
        f"repro.native.{name}",
        sources=[source],
        define_macros=[("KERNEL_SOURCE_DIGEST", f'"{digest}"')],
        extra_compile_args=["-O2", "-ffp-contract=off"],
        optional=True,
    )


_relaxation = _kernel("_relaxation")
_checkwork = _kernel("_checkwork")

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    ext_modules=[_relaxation, _checkwork],
)
