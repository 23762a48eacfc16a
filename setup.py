"""Setup script: the project's only packaging metadata.

It declares the ``repro`` package under ``src/`` and the optional compiled
kernels (``repro.native._relaxation`` and ``repro.native._checkwork``), so
``python setup.py build_ext --inplace`` builds them ahead of time.  The
extensions are strictly optional: when one is absent (or the build fails
-- see the ``optional`` flag) the engines and checkers run on the
pure-Python tier with identical results, and
``repro.native.load_kernel`` / ``load_check_kernel`` can still auto-build
them lazily at runtime.  No runtime dependency is needed.

On offline machines whose setuptools/pip combination cannot build PEP 660
editable wheels (no ``wheel`` package available) use::

    pip install -e . --no-build-isolation --no-use-pep517
"""

from setuptools import Extension, find_packages, setup

_relaxation = Extension(
    "repro.native._relaxation",
    sources=["src/repro/native/_relaxation.c"],
    extra_compile_args=["-O2", "-ffp-contract=off"],
    optional=True,
)

_checkwork = Extension(
    "repro.native._checkwork",
    sources=["src/repro/native/_checkwork.c"],
    extra_compile_args=["-O2", "-ffp-contract=off"],
    optional=True,
)

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    ext_modules=[_relaxation, _checkwork],
)
