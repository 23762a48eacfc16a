#!/usr/bin/env python3
"""Compare Mr.TPL against both baselines on one benchmark case (Tables II & III in miniature).

The script routes the same ISPD-2018-like case with Mr.TPL and with each
baseline of the paper's tables:

1. the DAC-2012-style 2-pin mask-expanded router (Table II baseline),
2. the TPL-unaware detailed router followed by OpenMPL-like layout
   decomposition (Table III baseline),

and prints one row per baseline; each metric cell reads ``baseline/Mr.TPL``.
Run with::

    python examples/router_comparison.py [case_number] [scale]
"""

from __future__ import annotations

import sys

from repro.bench import ispd18_suite
from repro.eval import compare_case, format_rows


def main() -> None:
    number = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.6
    case = ispd18_suite(scale, cases=[number])[0]
    print(f"case {case.name} at scale {scale}")
    for baseline in ("dac2012", "decompose"):
        print(f"\nbaseline {baseline} / Mr.TPL")
        print(format_rows([compare_case(case, baseline)]))


if __name__ == "__main__":
    main()
