"""Differential tests for the compiled relaxation kernel (repro.native).

The native tier's one promise is *bit-identical* behaviour: running the
same search compiled must produce exactly the labels, parents, aux bits,
tie-breaks and therefore solutions the buffered Python loop produces.
These tests enforce it three ways (``tests/test_golden_solutions.py``
additionally pins both tiers to committed solution digests):

* seeded fuzz parity -- randomized designs routed through every router
  with the kernel on and off, compared digest-for-digest;
* label-level parity -- single searches compared on the raw CoreResult
  cost / parent / aux maps (tie-breaks live in parents, the Alg. 2
  color-state merge lives in aux), in every expansion mode on an open
  grid whose heap outgrows the kernel's initial capacity, plus the
  kernel's labelled-box scan against the interpreted one;
* fallback behaviour -- gating the tier off mid-process, and loading with
  no binary and auto-build disabled, must leave the engines running (and
  agreeing) on the Python tier, and a binary with a stale ABI or built
  from other source must be rebuilt and used in the process that found
  it.

The kernel also length-checks every vertex-indexed buffer before its loop,
so a short buffer raises ``ValueError`` instead of being read out of
bounds.

Every native leg is skipped cleanly when no kernel can be built (no
compiler in the environment); the golden digests still pin the Python
tier.
"""

import random
import sys

import pytest

from repro import accel
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.design import Design, Net, Obstacle, Pin
from repro.dr.cost import CostModel
from repro.geometry import GridPoint, Rect
from repro.grid import RoutingGrid
from repro.tech import make_default_tech

HAVE_KERNEL = accel.native_available()
needs_kernel = pytest.mark.skipif(
    not HAVE_KERNEL, reason="native kernel unavailable (no compiler?)"
)


def _pin(name, layer, x, y):
    pin = Pin(name=name)
    pin.add_shape(layer, Rect(x - 1, y - 1, x + 1, y + 1))
    return pin


def random_design(seed: int) -> Design:
    """Return a randomized small design (die, nets, colored obstacles)."""
    rng = random.Random(seed)
    size = rng.choice((48, 64, 80))
    tech = make_default_tech(num_layers=3, color_spacing=8)
    design = Design(name=f"fuzz_{seed}", tech=tech, die_area=Rect(0, 0, size, size))
    for index in range(rng.randint(2, 4)):
        x0 = rng.randrange(8, size - 16, 4)
        y0 = rng.randrange(8, size - 16, 4)
        design.add_obstacle(
            Obstacle(
                layer=rng.randint(0, 1),
                rect=Rect(x0, y0, x0 + rng.randrange(4, 13, 4), y0 + 4),
                name=f"obs_{index}",
                color=rng.choice((-1, 0, 1, 2)),
            )
        )
    for index in range(rng.randint(3, 7)):
        net = Net(name=f"n{index}")
        for pin_index in range(rng.randint(2, 4)):
            x = rng.randrange(4, size - 3, 4)
            y = rng.randrange(4, size - 3, 4)
            net.add_pin(_pin(f"n{index}_p{pin_index}", 0, x, y))
        design.add_net(net)
    return design


def route_with_tier(router_class, design, native=True):
    """Route *design* with the native gate forced, restoring it after."""
    prev_native = accel.set_native_enabled(native)
    try:
        solution = router_class(design).run()
        return solution_fingerprint(solution), solution_metrics(solution)
    finally:
        accel.set_native_enabled(prev_native)


def router_classes():
    from repro.baselines.dac2012 import Dac2012Router
    from repro.dr.router import DetailedRouter
    from repro.tpl.mr_tpl import MrTPLRouter

    return {
        "maze": DetailedRouter,
        "color-state": MrTPLRouter,
        "dac2012": Dac2012Router,
    }


@needs_kernel
class TestFuzzParity:
    """Randomized designs, every tier, identical solutions."""

    @pytest.mark.parametrize("router_key", ["maze", "color-state", "dac2012"])
    @pytest.mark.parametrize("seed", range(6))
    def test_native_vs_buffered(self, router_key, seed):
        router_class = router_classes()[router_key]
        native = route_with_tier(router_class, random_design(seed), native=True)
        buffered = route_with_tier(router_class, random_design(seed), native=False)
        assert native == buffered

    @pytest.mark.parametrize("router_key", ["maze", "color-state", "dac2012"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_native_vs_buffered_python(self, router_key, seed, monkeypatch):
        """The kernel must also agree with the Python loop run with numpy unimportable."""
        router_class = router_classes()[router_key]
        native = route_with_tier(router_class, random_design(seed), native=True)
        monkeypatch.setitem(sys.modules, "numpy", None)
        scalar = route_with_tier(router_class, random_design(seed), native=False)
        assert native == scalar


@needs_kernel
class TestLabelParity:
    """Single searches compared on the raw label buffers."""

    def _design(self):
        tech = make_default_tech(num_layers=3, color_spacing=8)
        design = Design(name="labels", tech=tech, die_area=Rect(0, 0, 64, 64))
        design.add_obstacle(Obstacle(layer=0, rect=Rect(24, 24, 40, 28), name="o"))
        net = Net(name="n1", pins=[_pin("a", 0, 4, 4), _pin("b", 0, 60, 60)])
        design.add_net(net)
        return design

    def _maze_result(self, native, allow_occupied=True):
        from repro.dr.maze import MazeRouter

        prev = accel.set_native_enabled(native)
        try:
            grid = RoutingGrid(self._design())
            # A squatter owner exercises the congestion read and, with
            # allow_occupied_targets=False, the native accept predicate.
            grid.occupy(GridPoint(0, 8, 5), "squatter")
            result = MazeRouter(grid, CostModel(grid)).search(
                [(grid.index_of(GridPoint(0, 1, 1)), 0)],
                {grid.index_of(GridPoint(0, 15, 15)), grid.index_of(GridPoint(0, 8, 5))},
                "n1",
                allow_occupied_targets=allow_occupied,
            )
            core = result._core
            return result.reached, dict(core.cost), dict(core.parent)
        finally:
            accel.set_native_enabled(prev)

    @pytest.mark.parametrize("allow_occupied", [True, False])
    def test_maze_labels_bitwise(self, allow_occupied):
        native = self._maze_result(True, allow_occupied)
        python = self._maze_result(False, allow_occupied)
        assert native == python  # reached node, every cost, every parent

    def _color_result(self, native):
        from repro.tpl.search import ColorStateSearch

        prev = accel.set_native_enabled(native)
        try:
            grid = RoutingGrid(self._design())
            search = ColorStateSearch(grid, CostModel(grid))
            result = search.search(
                [(grid.index_of(GridPoint(0, 1, 1)), 0b111)],
                {grid.index_of(GridPoint(0, 15, 15))},
                "n1",
            )
            core = result._core
            return result.reached, dict(core.cost), dict(core.aux), dict(core.parent)
        finally:
            accel.set_native_enabled(prev)

    def test_color_state_labels_bitwise(self):
        """Aux bits carry the Alg. 2 mask merge; they must match exactly."""
        assert self._color_result(True) == self._color_result(False)

    def _colored_grid(self):
        """Return ``(grid, negative_index)`` for colour-pressure parity.

        Nets other than the searching n1 own coloured metal around its
        source, and one vertex carries a tiny negative pressure residue
        (what an inexact cost sum could leave behind after a release),
        which both tiers must read as it is, unclamped.
        """
        grid = RoutingGrid(self._design())
        for name, vertex, color in (
            ("a", GridPoint(0, 2, 1), 0),
            ("a", GridPoint(0, 3, 1), 1),
            ("b", GridPoint(0, 2, 2), 2),
            ("b", GridPoint(0, 4, 4), 0),
        ):
            grid.occupy(vertex, name)
            grid.set_vertex_color(vertex, name, color)
        pressure = grid.pressure_buffer()
        negative_index = grid.index_of(GridPoint(0, 8, 8))
        for mask in range(3):
            pressure[3 * negative_index + mask] = -1e-12
        return grid, negative_index

    @staticmethod
    def _label_bytes(core, special):
        """Every label as exact bits, plus the labelled state of *special*."""
        parent = core.parent
        aux = core.aux
        labels = sorted(
            (node, cost.hex(), aux[node], parent[node]) for node, cost in core.cost.items()
        )
        return labels, [core.is_labelled(node) for node in special]

    def _colored_color_result(self, native):
        from repro.tpl.search import ColorStateSearch

        prev = accel.set_native_enabled(native)
        try:
            grid, negative_index = self._colored_grid()
            result = ColorStateSearch(grid, CostModel(grid)).search(
                [(grid.index_of(GridPoint(0, 1, 1)), 0b111)],
                {grid.index_of(GridPoint(0, 15, 15))},
                "n1",
            )
            return self._label_bytes(result._core, (negative_index,))
        finally:
            accel.set_native_enabled(prev)

    def _colored_mask_expanded_result(self, native):
        from repro.baselines.dac2012 import MaskExpandedSearch

        prev = accel.set_native_enabled(native)
        try:
            grid, negative_index = self._colored_grid()
            search = MaskExpandedSearch(grid, CostModel(grid))
            captured = []
            search.core.on_result = lambda core: captured.append(
                self._label_bytes(core, [3 * negative_index + mask for mask in range(3)])
            )
            source, target = grid.index_of(GridPoint(0, 1, 1)), grid.index_of(GridPoint(0, 15, 15))
            path = search.search([(source, mask) for mask in range(3)], [target], "n1")
            assert path is not None
            return captured
        finally:
            accel.set_native_enabled(prev)

    def test_color_state_labels_on_colored_grid(self):
        """Inline pressure reads, negative residue included == the lazy closure."""
        native = self._colored_color_result(True)
        assert all(native[1])  # the residue vertex was relaxed
        assert native == self._colored_color_result(False)

    def test_mask_expanded_labels_on_colored_grid(self):
        native = self._colored_mask_expanded_result(True)
        assert any(native[0][1])  # the residue vertex was relaxed
        assert native == self._colored_mask_expanded_result(False)

    def test_tie_breaks_follow_insertion_order(self):
        """Many equal-cost paths: parents must still agree node for node
        (the kernel's heap reproduces heapq's (f, counter) pop order)."""
        from repro.dr.maze import MazeRouter

        def run(native):
            prev = accel.set_native_enabled(native)
            try:
                tech = make_default_tech(num_layers=2, color_spacing=8)
                design = Design(
                    name="ties", tech=tech, die_area=Rect(0, 0, 40, 40)
                )
                design.add_net(
                    Net(name="n1", pins=[_pin("a", 0, 4, 4), _pin("b", 0, 36, 36)])
                )
                grid = RoutingGrid(design)
                # An open grid maximises equal-cost path multiplicity.
                result = MazeRouter(grid, CostModel(grid)).search(
                    [(grid.index_of(GridPoint(0, 1, 1)), 0)],
                    {grid.index_of(GridPoint(0, 9, 9))},
                    "n1",
                )
                return result.reached, dict(result._core.parent)
            finally:
                accel.set_native_enabled(prev)

        assert run(True) == run(False)

    @staticmethod
    def _open_grid_search(mode, native, monkeypatch):
        """Search corner to corner on an open uniform-cost 31x31x2 grid.

        Returns the core's reached node, expansions and cost / aux /
        parent maps, plus every heap length the interpreted loop saw.
        """
        import heapq

        import repro.search.core as core_module

        lengths = []

        def push(heap, item):
            heapq.heappush(heap, item)
            lengths.append(len(heap))

        def pop(heap):
            lengths.append(len(heap))
            return heapq.heappop(heap)

        monkeypatch.setattr(core_module, "heappush", push)
        monkeypatch.setattr(core_module, "heappop", pop)
        prev = accel.set_native_enabled(native)
        try:
            tech = make_default_tech(num_layers=2, color_spacing=8)
            design = Design(name="open", tech=tech, die_area=Rect(0, 0, 120, 120))
            design.add_net(Net(name="n1", pins=[_pin("a", 0, 4, 4), _pin("b", 0, 116, 116)]))
            grid = RoutingGrid(design)
            model = CostModel(grid)
            source = grid.index_of(GridPoint(0, 1, 1))
            target = grid.index_of(GridPoint(0, grid.num_cols - 2, grid.num_rows - 2))
            if mode == "traditional":
                from repro.dr.maze import MazeRouter

                core = MazeRouter(grid, model).search([(source, 0)], {target}, "n1")._core
            elif mode == "color-state":
                from repro.tpl.search import ColorStateSearch

                core = ColorStateSearch(grid, model).search(
                    [(source, 0b111)], {target}, "n1"
                )._core
            else:
                from repro.baselines.dac2012 import MaskExpandedSearch

                search = MaskExpandedSearch(grid, model)
                captured = []
                search.core.on_result = captured.append
                search.search([(source, mask) for mask in range(3)], [target], "n1")
                core = captured[-1]
            labels = (core.reached, core.expansions, dict(core.cost), dict(core.aux),
                      dict(core.parent))
            return labels, lengths
        finally:
            accel.set_native_enabled(prev)

    @pytest.mark.parametrize("mode", ["traditional", "color-state", "mask-expanded"])
    def test_ties_and_heap_growth_in_every_mode(self, mode, monkeypatch):
        """Equal-cost ties everywhere, a heap past the kernel's initial
        256 entries and last parents with 1-3 children: the kernel's
        4-ary heap must still pop heapq's (f, counter) order."""
        native, native_lengths = self._open_grid_search(mode, True, monkeypatch)
        python, lengths = self._open_grid_search(mode, False, monkeypatch)
        assert not native_lengths  # the kernel ran, not the interpreted loop
        assert max(lengths) > 256
        assert {length % 4 for length in lengths} == {0, 1, 2, 3}
        assert native[0] >= 0
        assert native == python

    def _labelled_result(self, stride):
        """Return ``(grid, CoreResult)`` of one search with node stride *stride*."""
        grid = RoutingGrid(self._design())
        model = CostModel(grid)
        if stride == 1:
            from repro.dr.maze import MazeRouter

            result = MazeRouter(grid, model).search(
                [(grid.index_of(GridPoint(0, 1, 1)), 0)],
                {grid.index_of(GridPoint(0, 15, 15))},
                "n1",
            )
            return grid, result._core
        from repro.baselines.dac2012 import MaskExpandedSearch

        search = MaskExpandedSearch(grid, model)
        captured = []
        search.core.on_result = captured.append
        source, target = grid.index_of(GridPoint(0, 1, 1)), grid.index_of(GridPoint(0, 15, 15))
        search.search([(source, mask) for mask in range(3)], [target], "n1")
        return grid, captured[-1]

    @staticmethod
    def _boxes(result, plane_size, num_rows, stride):
        """The labelled planar box from the kernel and from the Python loop."""
        boxes = []
        for native in (True, False):
            prev = accel.set_native_enabled(native)
            try:
                boxes.append(result.labelled_planar_box(plane_size, num_rows, stride))
            finally:
                accel.set_native_enabled(prev)
        return boxes

    @pytest.mark.parametrize("stride", [1, 3])
    def test_labelled_box_matches_python(self, stride):
        grid, result = self._labelled_result(stride)
        native, python = self._boxes(result, grid.plane_size, grid.num_rows, stride)
        assert native is not None
        assert native == python

    def test_labelled_box_none_without_labels(self):
        from array import array

        from repro.search.core import CoreResult

        stale = CoreResult(-1, 0, array("d"), array("i"), array("i"), array("q", [3] * 50), 7)
        for result in (CoreResult.empty(), stale):
            assert self._boxes(result, 25, 5, 1) == [None, None]


@needs_kernel
class TestArgumentChecks:
    """run_search refuses short vertex-indexed buffers before its loop."""

    @pytest.mark.parametrize(
        "mode, field, buffer",
        [
            ("traditional", "guide_slots", "guide_slot"),
            ("traditional", "history", "history"),
            ("traditional", "owner", "owner"),
            ("traditional", "neighbor", "neighbor"),
            ("traditional", "blocked", "blocked"),
            ("color-state", "pressure", "pressure"),
        ],
    )
    def test_short_buffer_raises(self, mode, field, buffer):
        from repro.dr.maze import make_traditional_expand
        from repro.search import SearchCore
        from repro.tpl.search import make_color_state_expand

        factory = {"traditional": make_traditional_expand, "color-state": make_color_state_expand}
        prev = accel.set_native_enabled(True)
        try:
            grid = RoutingGrid(random_design(0))
            model = CostModel(grid)
            expand = factory[mode](grid, model, "n0", grid.net_id("n0"))
            spec = expand.native_spec
            setattr(spec, field, getattr(spec, field)[:-1])
            with pytest.raises(ValueError, match=f"^{buffer} buffer"):
                SearchCore(grid, model).run([(0, 7)], {grid.num_vertices - 1}, expand)
        finally:
            accel.set_native_enabled(prev)

    def test_slot_past_mask_raises(self):
        """A slot the mask does not cover is never read; the call raises."""
        from repro.dr.maze import make_traditional_expand
        from repro.search import SearchCore

        prev = accel.set_native_enabled(True)
        try:
            grid = RoutingGrid(random_design(0))
            model = CostModel(grid)
            expand = make_traditional_expand(grid, model, "n0", grid.net_id("n0"))
            expand.native_spec.guide_mask = b""
            with pytest.raises(ValueError, match="past the guide_mask"):
                SearchCore(grid, model).run([(0, 7)], {grid.num_vertices - 1}, expand)
        finally:
            accel.set_native_enabled(prev)


class TestFallback:
    """The engines must run correctly with the native tier unavailable."""

    def test_gate_off_routes_identically(self):
        router_class = router_classes()["maze"]
        prev = accel.set_native_enabled(False)
        try:
            assert accel.get_native_kernel() is None
            assert accel.active_search_tier() != "native"
            fingerprint, metrics = route_with_tier(
                router_class, random_design(2), native=False
            )
        finally:
            accel.set_native_enabled(prev)
        assert metrics["failed_nets"] == 0 or fingerprint  # routed something

    def test_spec_not_attached_when_gated(self):
        from repro.dr.maze import make_traditional_expand

        prev = accel.set_native_enabled(False)
        try:
            grid = RoutingGrid(random_design(0))
            expand = make_traditional_expand(grid, CostModel(grid), "n0", 1)
            assert not hasattr(expand, "native_spec")
        finally:
            accel.set_native_enabled(prev)

    @needs_kernel
    def test_native_tier_runs_without_numpy(self, monkeypatch):
        """numpy unimportable, native on: every adapter dispatches to the kernel."""
        from repro.baselines.dac2012 import MaskExpandedSearch
        from repro.dr.maze import make_traditional_expand
        from repro.tpl.search import make_color_state_expand

        monkeypatch.setitem(sys.modules, "numpy", None)
        prev_native = accel.set_native_enabled(True)
        try:
            assert accel.active_search_tier() == "native"
            grid = RoutingGrid(random_design(0))
            model = CostModel(grid)
            net_id = grid.net_id("n0")
            expands = [
                make_traditional_expand(grid, model, "n0", net_id),
                make_color_state_expand(grid, model, "n0", net_id),
                MaskExpandedSearch(grid, model).make_expand("n0"),
            ]
            assert all(hasattr(expand, "native_spec") for expand in expands)
        finally:
            accel.set_native_enabled(prev_native)

    @needs_kernel
    @pytest.mark.parametrize("router_key", ["maze", "color-state", "dac2012"])
    def test_native_without_numpy_routes_identically(self, router_key, monkeypatch):
        router_class = router_classes()[router_key]
        with_numpy = route_with_tier(router_class, random_design(4), native=True)
        monkeypatch.setitem(sys.modules, "numpy", None)
        without = route_with_tier(router_class, random_design(4), native=True)
        assert without == with_numpy

    def test_loader_without_binary_or_autobuild(self, monkeypatch, tmp_path):
        """No binary anywhere + auto-build off => load_kernel() is None."""
        import repro.native as native
        import repro.native.build as build

        monkeypatch.setenv(native.AUTOBUILD_ENV, "0")
        monkeypatch.setattr(build, "candidate_paths", lambda name=None: [])
        monkeypatch.setattr(native, "candidate_paths", lambda name=None: [])
        native.reset_loader_state()
        try:
            assert native.load_kernel() is None
            assert native.kernel_load_error() is not None
        finally:
            native.reset_loader_state()

    @needs_kernel
    def test_loader_rejects_stale_abi(self, monkeypatch):
        """A binary with the wrong ABI version must not be accepted."""
        import repro.native as native

        monkeypatch.setattr(native, "EXPECTED_ABI_VERSION", -999)
        native.reset_loader_state()
        try:
            assert native.load_kernel() is None
        finally:
            monkeypatch.undo()
            native.reset_loader_state()
        assert native.load_kernel() is not None  # sanity: recovers

    @needs_kernel
    def test_first_load_rebuilds_stale_binary(self, tmp_path):
        """A stale-ABI binary is rebuilt and the *same* process's first
        load_kernel() returns the current ABI, not the cached stale module."""
        import os
        import shutil
        import subprocess
        import sys

        import repro
        import repro.native as native

        package = os.path.dirname(os.path.abspath(repro.__file__))
        copy = tmp_path / "src"
        shutil.copytree(
            package,
            copy / "repro",
            ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"),
        )
        source = copy / "repro" / "native" / "_relaxation.c"
        current = source.read_text()
        marker = f"#define KERNEL_ABI_VERSION {native.EXPECTED_ABI_VERSION}"
        assert marker in current
        env = dict(os.environ, PYTHONPATH=str(copy), REPRO_NATIVE_AUTOBUILD="1")
        env.pop("REPRO_PURE_PYTHON", None)

        def run(code):
            return subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=300,
            )

        stale_marker = f"#define KERNEL_ABI_VERSION {native.EXPECTED_ABI_VERSION - 1}"
        source.write_text(current.replace(marker, stale_marker))
        planted = run("from repro.native.build import build_extension; build_extension()")
        assert planted.returncode == 0, planted.stderr
        source.write_text(current)
        probe = run(
            "import repro.native as n\n"
            "k = n.load_kernel()\n"
            "print(k.KERNEL_ABI_VERSION if k is not None else None)\n"
            "print(n.kernel_load_error())\n"
        )
        assert probe.returncode == 0, probe.stderr
        abi, error = probe.stdout.split("\n")[:2]
        assert abi == str(native.EXPECTED_ABI_VERSION), error
        assert error == "None"

    @needs_kernel
    def test_first_load_rebuilds_binary_from_edited_source(self, tmp_path):
        """A binary with the current ABI but built from other C source is
        rebuilt, and the first load_kernel() returns the rebuilt module."""
        import os
        import shutil
        import subprocess
        import sys

        import repro
        from repro.native.build import source_digest

        package = os.path.dirname(os.path.abspath(repro.__file__))
        copy = tmp_path / "src"
        shutil.copytree(
            package,
            copy / "repro",
            ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"),
        )
        source = copy / "repro" / "native" / "_relaxation.c"
        current = source.read_text()
        env = dict(os.environ, PYTHONPATH=str(copy), REPRO_NATIVE_AUTOBUILD="1")
        env.pop("REPRO_PURE_PYTHON", None)

        def run(code):
            return subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=300,
            )

        # Same ABI number, different source: an edit made without a bump.
        source.write_text(current + "\n/* edited */\n")
        planted = run(
            "from repro.native.build import build_extension, source_digest\n"
            "build_extension()\n"
            "print(source_digest())\n"
        )
        assert planted.returncode == 0, planted.stderr
        edited_digest = planted.stdout.strip()
        source.write_text(current)
        probe = run(
            "import repro.native as n\n"
            "k = n.load_kernel()\n"
            "print(k.KERNEL_SOURCE_DIGEST if k is not None else None)\n"
            "print(n.kernel_load_error())\n"
        )
        assert probe.returncode == 0, probe.stderr
        digest, error = probe.stdout.split("\n")[:2]
        assert digest != edited_digest
        assert digest == source_digest(), error
        assert error == "None"


class TestEnvKnobs:
    """Shared REPRO_* environment parsing (repro.utils.env)."""

    def test_flag_spellings(self, monkeypatch):
        from repro.utils.env import env_flag

        for value, expected in [
            ("1", True), ("true", True), ("YES", True), (" on ", True),
            ("0", False), ("false", False), ("no", False), ("", False),
        ]:
            monkeypatch.setenv("REPRO_TEST_FLAG", value)
            assert env_flag("REPRO_TEST_FLAG") is expected
        monkeypatch.delenv("REPRO_TEST_FLAG")
        assert env_flag("REPRO_TEST_FLAG", True) is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(ValueError):
            env_flag("REPRO_TEST_FLAG")

    def test_int(self, monkeypatch):
        from repro.utils.env import env_int

        monkeypatch.setenv("REPRO_TEST_INT", "7")
        assert env_int("REPRO_TEST_INT", 3) == 7
        monkeypatch.setenv("REPRO_TEST_INT", "  ")
        assert env_int("REPRO_TEST_INT", 3) == 3
        monkeypatch.setenv("REPRO_TEST_INT", "seven")
        with pytest.raises(ValueError):
            env_int("REPRO_TEST_INT", 3)
