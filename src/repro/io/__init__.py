"""Design and result I/O.

* :mod:`repro.io.json_io` -- lossless JSON round-trip of designs and routing
  solutions (the format the examples persist their outputs in),
* :mod:`repro.io.lefdef` -- a LEF/DEF-lite text format: a small, readable
  subset of the contest formats (die area, instances, nets, obstacles) that
  keeps the parsing code path of a real router exercised without shipping
  the multi-hundred-megabyte originals,
* :mod:`repro.io.guide_io` -- ISPD-style ``.guide`` files for route guides,
* :mod:`repro.io.checkpoint_io` -- campaign checkpoints (design + grid
  snapshot + solution + campaign cursor; the grid is restored from the
  snapshot on load, making rip-up campaigns resumable).
"""

from repro.io.checkpoint_io import (
    campaign_from_dict,
    campaign_to_dict,
    checkpoint_campaign,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    load_checkpoint_document,
    save_checkpoint,
)
from repro.io.json_io import (
    design_to_dict,
    design_from_dict,
    save_design_json,
    load_design_json,
    route_to_dict,
    route_from_dict,
    solution_to_dict,
    solution_from_dict,
    save_solution_json,
    load_solution_json,
)
from repro.io.lefdef import write_def_lite, read_def_lite
from repro.io.guide_io import write_guides, read_guides

__all__ = [
    "design_to_dict",
    "design_from_dict",
    "save_design_json",
    "load_design_json",
    "route_to_dict",
    "route_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "save_solution_json",
    "load_solution_json",
    "write_def_lite",
    "read_def_lite",
    "write_guides",
    "read_guides",
    "campaign_from_dict",
    "campaign_to_dict",
    "checkpoint_campaign",
    "checkpoint_from_dict",
    "checkpoint_to_dict",
    "load_checkpoint",
    "load_checkpoint_document",
    "save_checkpoint",
]
