"""Native-dispatch descriptors bridging adapters and the compiled kernel.

The router adapters express their expansion logic as Python closures; the
compiled kernel re-implements the same three expansions natively.  To let
:meth:`repro.search.SearchCore.run` switch between them transparently, each
adapter factory *attaches* a :class:`NativeExpandSpec` to the closure it
returns (``expand.native_spec = ...``): a declarative bundle of the flat
tables and scalars the kernel needs to reproduce that closure bit for bit.
The core dispatches natively only when a spec is present, the kernel is
loaded, and the spec's node stride matches the run -- otherwise the closure
runs as before, so the Python path remains the always-available fallback
and the differential oracle.

Specs are built only when the native tier is active
(:func:`repro.accel.get_native_kernel`).  They carry no per-search tables:
the kernel reads the grid's live history, owner and pressure buffers and
computes the congestion and colour-pressure terms inline, so the tier
needs no O(V) set-up per search.
"""

from __future__ import annotations

from typing import Callable

#: Expansion modes -- values mirror the C kernel's constants.
MODE_TRADITIONAL = 0
MODE_COLOR_STATE = 1
MODE_MASK_EXPANDED = 2


class NativeExpandSpec:
    """Everything the kernel needs to run one adapter's expansion natively.

    All table attributes are flat buffers (``array``/``bytearray``/
    ``bytes``) the C side reads through the buffer protocol; the grid and
    guide ones are the very buffers the Python closure reads, so the two
    paths can never diverge on data.
    """

    __slots__ = (
        "mode",
        "node_stride",
        "net_id",
        "neighbor",
        "blocked",
        "base_costs",
        "guide_mask",
        "guide_slots",
        "history",
        "owner",
        "pressure",
        "history_weight",
        "occupancy_penalty",
        "out_of_guide_penalty",
        "gamma",
        "stitch",
        "tolerance",
    )

    def __init__(
        self,
        mode: int,
        node_stride: int,
        net_id: int,
        neighbor,
        blocked,
        base_costs,
        guide_mask,
        guide_slots,
        history,
        owner,
        pressure=None,
        history_weight: float = 0.0,
        occupancy_penalty: float = 0.0,
        out_of_guide_penalty: float = 0.0,
        gamma: float = 0.0,
        stitch: float = 0.0,
        tolerance: float = 0.0,
    ) -> None:
        self.mode = mode
        self.node_stride = node_stride
        self.net_id = net_id
        self.neighbor = neighbor
        self.blocked = blocked
        self.base_costs = base_costs
        self.guide_mask = guide_mask
        self.guide_slots = guide_slots
        self.history = history
        self.owner = owner
        self.pressure = pressure
        self.history_weight = history_weight
        self.occupancy_penalty = occupancy_penalty
        self.out_of_guide_penalty = out_of_guide_penalty
        self.gamma = gamma
        self.stitch = stitch
        self.tolerance = tolerance


def attach_native_spec(
    expand: Callable,
    mode: int,
    grid,
    cost_model,
    net_name: str,
    net_id: int,
    stitch: float = 0.0,
    tolerance: float = 0.0,
) -> Callable:
    """Attach a :class:`NativeExpandSpec` to *expand* when the tier is active.

    Returns *expand* either way, so factories can ``return
    attach_native_spec(expand, ...)``.  The spec aliases the grid's live
    buffers plus the cost model's build-once base-cost table, vertex ->
    gcell-slot map and per-net guide mask, so attaching it costs no
    per-search table work.
    """
    from repro.accel import get_native_kernel

    if get_native_kernel() is None:
        return expand
    rules = grid.rules
    expand.native_spec = NativeExpandSpec(
        mode=mode,
        node_stride=3 if mode == MODE_MASK_EXPANDED else 1,
        net_id=net_id,
        neighbor=grid.neighbor_table(),
        blocked=grid.blocked_buffer(),
        base_costs=cost_model.base_cost_flat(),
        guide_mask=cost_model.guide_mask(net_name),
        guide_slots=cost_model.guide_slot_map(),
        history=grid.history_buffer(),
        owner=grid.owner_buffer(),
        pressure=grid.pressure_buffer() if mode != MODE_TRADITIONAL else None,
        history_weight=rules.history_weight,
        occupancy_penalty=rules.occupancy_penalty,
        out_of_guide_penalty=rules.out_of_guide_penalty,
        gamma=rules.gamma,
        stitch=stitch,
        tolerance=tolerance,
    )
    return expand

