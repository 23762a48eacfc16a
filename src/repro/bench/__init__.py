"""Benchmark workloads.

The ISPD 2018/2019 contest benchmarks the paper evaluates on are hundreds of
megabytes of LEF/DEF and far beyond what a pure-Python router can turn
around, so this package generates *synthetic ISPD-like* cases instead (see
DESIGN.md section 4 for the substitution argument): row-placed standard
cells, multi-pin nets with locality, macros and obstacles, and contest-style
design rules.  Two suites mirror the two experiment tables:

* :func:`ispd18_suite` -- ten cases of increasing size/density for the
  Table II router-vs-router comparison,
* :func:`ispd19_suite` -- ten denser cases with tighter color spacing (the
  "advanced rules" regime) for the Table III decomposition comparison.

:mod:`repro.bench.micro` holds the hand-crafted Fig. 1 / Fig. 3 layouts and
the solution digests the parity checks compare.
"""

from repro.bench.synthetic import SyntheticSpec, generate_design
from repro.bench.suites import ispd18_suite, ispd19_suite, suite_case, SuiteCase
from repro.bench.micro import fig1_dense_cluster, fig1_multi_pin_net, fig3_walkthrough_design

__all__ = [
    "SyntheticSpec",
    "generate_design",
    "ispd18_suite",
    "ispd19_suite",
    "suite_case",
    "SuiteCase",
    "fig1_dense_cluster",
    "fig1_multi_pin_net",
    "fig3_walkthrough_design",
]
