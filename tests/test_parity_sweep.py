"""Per-push coverage of the nightly full-scale parity sweep's case check."""

import importlib.util
from pathlib import Path

from repro.bench.micro import fig1_dense_cluster

_SPEC = importlib.util.spec_from_file_location(
    "parity_sweep", Path(__file__).resolve().parents[1] / "scripts" / "parity_sweep.py"
)
parity_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity_sweep)


def test_check_design_finds_no_mismatch_on_fig1_dense_cluster():
    mismatches, legs = parity_sweep.check_design("fig1_dense_cluster", fig1_dense_cluster)
    assert mismatches == []
    # 3 routers x (6 legs + 1 checkpoint leg); the pool leg needs fork.
    assert legs == (21 if parity_sweep.HAVE_FORK else 18)
