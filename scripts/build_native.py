#!/usr/bin/env python
"""Build (or verify) the compiled kernels ahead of time.

Usage::

    PYTHONPATH=src python scripts/build_native.py [--check]

Without flags the script compiles both extensions
(``repro.native._relaxation``, the search inner loop, and
``repro.native._checkwork``, the incremental-check neighborhood scan)
with the interpreter's own toolchain and reports where the binaries
landed.  With ``--check`` it only reports the loaders' view -- whether
usable kernels are already importable, with each one's ABI and whether
it was built from the C source in this checkout, and, if not, why --
without building anything (it sets ``REPRO_NATIVE_AUTOBUILD=0`` for the
probe).  A binary whose ABI or source digest is stale is not usable.

The build is optional by design: the routers and checkers run
bit-identically on the pure-Python tier when no kernel is
available.  Exit status: 0 when every kernel is (now) loadable, 1
otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="only probe for existing binaries; never compile",
    )
    args = parser.parse_args(argv)

    if args.check:
        os.environ["REPRO_NATIVE_AUTOBUILD"] = "0"

    from repro.native import (
        ALL_EXTENSION_NAMES,
        NativeBuildError,
        build_extension,
        kernel_load_error,
        load_check_kernel,
        load_kernel,
        reset_loader_state,
        source_digest,
    )

    if not args.check:
        failed = False
        for name in ALL_EXTENSION_NAMES:
            try:
                target = build_extension(name=name)
            except NativeBuildError as exc:
                print(f"build of {name} failed: {exc}", file=sys.stderr)
                failed = True
                continue
            print(f"built {target}")
        reset_loader_state()
        if failed:
            return 1

    status = 0
    loaders = (("_relaxation", load_kernel), ("_checkwork", load_check_kernel))
    for name, loader in loaders:
        kernel = loader()
        if kernel is None:
            print(f"no usable {name} kernel: {kernel_load_error(name)}", file=sys.stderr)
            status = 1
        else:
            if source_digest(name) is None:
                source = "no source to compare"
            else:
                source = "source digest matches"
            print(f"{name} loaded: {kernel.__file__} (ABI {kernel.KERNEL_ABI_VERSION}, {source})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
