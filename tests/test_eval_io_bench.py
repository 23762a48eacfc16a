"""Tests for evaluation, I/O round-trips, and the benchmark generators."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import (
    SyntheticSpec,
    fig1_dense_cluster,
    fig1_multi_pin_net,
    fig3_walkthrough_design,
    generate_design,
    ispd18_suite,
    ispd19_suite,
    suite_case,
)
from repro.baselines import Dac2012Router, LayoutDecomposer
from repro.bench.micro import solution_fingerprint
from repro.dr import DetailedRouter
from repro.eval import (
    IspdScoreWeights,
    compare_case,
    evaluate_solution,
    format_table,
    ispd_score,
    run_fig1_examples,
    run_fig3_walkthrough,
    summarize,
)
from repro.eval.report import format_percent
from repro.gr import GlobalRouter
from repro.grid import RoutingGrid
from repro.io import (
    design_from_dict,
    design_to_dict,
    load_design_json,
    load_solution_json,
    read_def_lite,
    read_guides,
    save_design_json,
    save_solution_json,
    solution_from_dict,
    solution_to_dict,
    write_def_lite,
    write_guides,
)
from repro.grid.gcell import GCellGrid
from repro.tpl import MrTPLRouter


class TestIspdScore:
    def test_monotone_in_each_component(self):
        base = dict(wirelength=100, vias=10, out_of_guide=5, wrong_way=3,
                    shorts=0, spacing_violations=0, open_nets=0, pitch=4)
        reference = ispd_score(**base)
        for key in ("wirelength", "vias", "out_of_guide", "wrong_way", "shorts",
                    "spacing_violations", "open_nets"):
            bumped = dict(base)
            bumped[key] += 1
            assert ispd_score(**bumped) > reference

    def test_violations_dominate(self):
        clean = ispd_score(1000, 50, 10, 10, 0, 0, 0, pitch=4)
        shorted = ispd_score(1000, 50, 10, 10, 1, 0, 0, pitch=4)
        assert shorted - clean == pytest.approx(IspdScoreWeights().short)

    def test_custom_weights(self):
        weights = IspdScoreWeights(wirelength=1.0, via=0.0)
        assert ispd_score(10, 100, 0, 0, 0, 0, 0, pitch=1, weights=weights) == 10.0


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "long-name" in lines[2] or "long-name" in lines[3]

    def test_format_percent(self):
        assert format_percent(0.8117) == "81.17%"


class TestEvaluation:
    def test_evaluate_routed_micro_design(self):
        design = fig3_walkthrough_design()
        grid = RoutingGrid(design)
        solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
        result = evaluate_solution(design, grid, solution)
        as_dict = result.as_dict()
        assert as_dict["design"] == design.name
        assert as_dict["wirelength"] == solution.total_wirelength()
        assert result.score > 0

    def test_evaluation_leaves_the_solution_unchanged(self):
        """``evaluate_solution`` only reads: the solution's fingerprint, its
        routes' revisions and the grid are as they were, and the stitch
        count is the routes' own."""
        design = suite_case("ispd19", 2, scale=0.5).build()
        grid = RoutingGrid(design)
        solution = Dac2012Router(design, grid=grid, max_iterations=0).run()
        fingerprint = solution_fingerprint(solution)
        revisions = {name: route.revision for name, route in solution.routes.items()}
        grid_state = grid.snapshot_state()
        result = evaluate_solution(design, grid, solution)
        assert result.stitches == solution.total_stitches() > 0
        assert solution_fingerprint(solution) == fingerprint
        assert {name: route.revision for name, route in solution.routes.items()} == revisions
        assert grid.snapshot_state() == grid_state

    def test_open_net_shows_up_in_score(self):
        design = fig1_multi_pin_net()
        grid = RoutingGrid(design)
        from repro.grid import RoutingSolution

        empty = RoutingSolution(design_name=design.name)
        result = evaluate_solution(design, grid, empty)
        assert result.open_nets == len(design.routable_nets())
        assert result.score >= IspdScoreWeights().open_net * result.open_nets


def _fresh_evaluation(flow, case, max_iterations):
    """Route *case* with *flow* by hand, as the tables' columns do, and score
    it; ``runtime_seconds`` is dropped because timing never repeats."""
    design = case.build()
    guides = GlobalRouter(design).route()
    grid = RoutingGrid(design)
    if flow == "decompose":
        plain = DetailedRouter(
            design, grid=grid, guides=guides, max_iterations=max_iterations
        ).run()
        solution = LayoutDecomposer(design, grid).decompose(plain).solution
    else:
        router_cls = {"dac2012": Dac2012Router, "mr-tpl": MrTPLRouter}[flow]
        solution = router_cls(
            design, grid=grid, guides=guides, max_iterations=max_iterations
        ).run()
    metrics = evaluate_solution(design, grid, solution, guides).as_dict()
    del metrics["runtime_seconds"]
    return metrics


def _load_run_experiments():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExperimentHarnesses:
    def test_table2_row_on_tiny_case(self):
        case = ispd18_suite(scale=0.45, cases=[1])[0]
        row = compare_case(case, "dac2012", max_iterations=1)
        data = row.as_dict()
        assert data["case"] == "test1"
        assert data["baseline"]["router"] == "dac2012"
        assert row.baseline.runtime_seconds > 0 and row.ours.runtime_seconds > 0
        summary = summarize([row])
        assert "avg_speedup" in summary and summary["max_speedup"] == row.speedup

    def test_table3_row_on_tiny_case(self):
        case = ispd19_suite(scale=0.45, cases=[1])[0]
        row = compare_case(case, "decompose", max_iterations=1)
        assert row.baseline.router_name.endswith(LayoutDecomposer.name)
        assert row.baseline.conflicts >= 0 and row.ours.conflicts >= 0
        summary = summarize([row])
        assert "avg_conflict_improvement" in summary

    def test_every_column_matches_a_fresh_evaluation(self):
        """Both columns of a Table II and a Table III row equal a fresh
        ``evaluate_solution`` of the same flow on the same case: conflicts,
        stitches, shorts, failed nets, iterations and the rest.  At scale 0.7,
        case 3 gives every column shorts and out-of-guide vertices."""
        for suite, baseline in ((ispd18_suite, "dac2012"), (ispd19_suite, "decompose")):
            case = suite(scale=0.7, cases=[3])[0]
            row = compare_case(case, baseline, max_iterations=1)
            for flow, result in ((baseline, row.baseline), ("mr-tpl", row.ours)):
                metrics = result.as_dict()
                del metrics["runtime_seconds"]
                assert metrics == _fresh_evaluation(flow, case, 1), (baseline, flow)

    def test_unknown_baseline_is_rejected(self):
        case = ispd18_suite(scale=0.45, cases=[1])[0]
        with pytest.raises(ValueError):
            compare_case(case, "mr-tpl")

    def test_run_experiments_prints_both_tables(self, capsys):
        _load_run_experiments().main(["0.45", "1"])
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines if line.startswith("{")]
        assert [record["table"] for record in records] == ["II", "III"]
        for record in records:
            for side in ("baseline", "ours"):
                for key in ("conflicts", "stitches", "shorts", "failed_nets", "iterations"):
                    assert isinstance(record[side][key], int)
        headings = [line for line in lines if line.startswith("Table ")]
        assert any(line.startswith("Table II (") for line in headings)
        assert any(line.startswith("Table III (") for line in headings)
        headers = [line for line in lines if line.startswith("case ")]
        assert len(headers) == 2
        for header in headers:
            assert "shorts" in header and "failed nets" in header and "iterations" in header

    def test_fig1_mrtpl_never_loses(self):
        """Fig. 1: Mr.TPL does no worse than the alternative on either scenario."""
        by_name = {result.scenario: result for result in run_fig1_examples(max_iterations=3)}
        cluster = by_name["fig1_dense_cluster"]
        assert cluster.conflicts("mr-tpl") <= cluster.conflicts("decomposition")
        multi = by_name["fig1_multi_pin_net"]
        assert multi.conflicts("mr-tpl") <= multi.conflicts("dac2012")
        assert multi.stitches("mr-tpl") <= multi.stitches("dac2012")

    def test_fig3_walkthrough_summary(self):
        result = run_fig3_walkthrough(max_iterations=3)
        assert result.conflicts == 0
        assert result.evaluation.open_nets == 0
        assert sum(result.colors_used.values()) > 0

    def test_empty_summaries(self):
        assert summarize([])["avg_speedup"] == 0.0
        assert summarize([])["avg_stitch_improvement"] == 0.0


class TestDesignIO:
    def test_design_json_roundtrip(self, tmp_path):
        design = generate_design(SyntheticSpec(
            name="io", seed=3, cols=18, rows=18, num_nets=6, obstacle_count=2,
            colored_obstacle_fraction=1.0, row_spacing=3, cell_spacing=3, strap_period=4,
        ))
        path = tmp_path / "design.json"
        save_design_json(design, path)
        loaded = load_design_json(path)
        assert loaded.name == design.name
        assert loaded.die_area == design.die_area
        assert len(loaded.nets) == len(design.nets)
        assert len(loaded.obstacles) == len(design.obstacles)
        assert loaded.tech.rules.color_spacing == design.tech.rules.color_spacing
        original = {net.name: net.num_pins for net in design.nets}
        restored = {net.name: net.num_pins for net in loaded.nets}
        assert original == restored

    def test_design_dict_preserves_colored_obstacles(self):
        design = fig3_walkthrough_design()
        rebuilt = design_from_dict(design_to_dict(design))
        assert [o.color for o in rebuilt.colored_obstacles()] == [
            o.color for o in design.colored_obstacles()
        ]

    def test_macro_obstructions_survive_roundtrip(self, tmp_path):
        design = suite_case("ispd19", 4, scale=0.5).build()
        assert any(instance.obstruction_shapes() for instance in design.instances.values())
        path = tmp_path / "case.deflite"
        write_def_lite(design, path)
        for loaded in (design_from_dict(design_to_dict(design)), read_def_lite(path)):
            assert loaded.blockage_shapes() == design.blockage_shapes()

    def test_solution_json_roundtrip(self, tmp_path):
        design = fig3_walkthrough_design()
        grid = RoutingGrid(design)
        solution = MrTPLRouter(design, grid=grid, use_global_router=False).run()
        path = tmp_path / "solution.json"
        save_solution_json(solution, path)
        loaded = load_solution_json(path, grid.route_dims)
        assert loaded.design_name == solution.design_name
        assert loaded.total_wirelength() == solution.total_wirelength()
        assert loaded.total_stitches() == solution.total_stitches()
        original = solution.route_of("fig3_net").vertex_colors
        restored = loaded.route_of("fig3_net").vertex_colors
        assert original == restored

    def test_solution_dict_roundtrip_identity(self):
        design = fig1_dense_cluster()
        grid = RoutingGrid(design)
        solution = DetailedRouter(design, grid=grid).run()
        rebuilt = solution_from_dict(solution_to_dict(solution), grid.route_dims)
        for name, route in solution.routes.items():
            assert rebuilt.routes[name].edges == route.edges

    def test_def_lite_roundtrip(self, tmp_path):
        design = fig3_walkthrough_design()
        path = tmp_path / "case.deflite"
        write_def_lite(design, path)
        loaded = read_def_lite(path)
        assert loaded.name == design.name
        assert loaded.die_area == design.die_area
        assert len(loaded.nets) == len(design.nets)
        assert len(loaded.obstacles) == len(design.obstacles)
        assert [o.color for o in loaded.obstacles] == [o.color for o in design.obstacles]
        assert loaded.tech.rules.color_spacing == design.tech.rules.color_spacing

    def test_guide_roundtrip(self, tmp_path):
        design = fig1_multi_pin_net()
        router = GlobalRouter(design, gcell_size=16)
        guides = router.route()
        path = tmp_path / "routes.guide"
        write_guides(guides, path)
        loaded = read_guides(path, GCellGrid(design, gcell_size=16))
        assert loaded.net_names() == guides.net_names()
        for name in guides.net_names():
            assert loaded.guide_of(name).cells == guides.guide_of(name).cells


class TestBenchmarkGenerators:
    def test_generator_is_deterministic(self):
        spec = SyntheticSpec(name="det", seed=99, cols=20, rows=20, num_nets=8,
                             row_spacing=3, cell_spacing=3)
        a, b = generate_design(spec), generate_design(spec)
        assert [net.name for net in a.nets] == [net.name for net in b.nets]
        assert [pin.full_name for pin in a.all_pins()] == [pin.full_name for pin in b.all_pins()]
        assert [o.rect for o in a.obstacles] == [o.rect for o in b.obstacles]

    def test_different_seeds_differ(self):
        base = dict(name="d", cols=20, rows=20, num_nets=8, row_spacing=3, cell_spacing=3)
        a = generate_design(SyntheticSpec(seed=1, **base))
        b = generate_design(SyntheticSpec(seed=2, **base))
        assert [pin.full_name for pin in a.all_pins()] != [pin.full_name for pin in b.all_pins()]

    def test_generated_designs_validate(self):
        for case in ispd18_suite(scale=0.5, cases=[1, 2]) + ispd19_suite(scale=0.5, cases=[1]):
            design = case.build()
            assert design.validate() == []
            stats = design.statistics()
            assert stats["routable_nets"] > 0
            assert stats["multi_pin_nets"] > 0

    def test_suites_scale_monotonically(self):
        suite = ispd18_suite(scale=1.0)
        assert len(suite) == 10
        sizes = [case.spec.cols * case.spec.rows for case in suite]
        nets = [case.spec.num_nets for case in suite]
        assert sizes == sorted(sizes) and nets == sorted(nets)

    def test_ispd19_has_straps_and_tighter_rules(self):
        case = ispd19_suite(scale=0.6, cases=[3])[0]
        design = case.build()
        assert any(o.name.startswith("strap") for o in design.obstacles)
        assert case.spec.strap_period > 0

    def test_suite_case_lookup(self):
        case = suite_case("ispd18", 4, scale=0.5)
        assert case.name == "test4"
        with pytest.raises(ValueError):
            suite_case("unknown", 1)

    def test_micro_cases_have_expected_structure(self):
        cluster = fig1_dense_cluster()
        assert len(cluster.routable_nets()) == 4
        multi = fig1_multi_pin_net()
        assert max(net.num_pins for net in multi.nets) == 4
        fig3 = fig3_walkthrough_design()
        assert len(fig3.colored_obstacles()) == 2
        assert fig3.routable_nets()[0].num_pins == 4

    def test_strap_obstacles_do_not_block_tracks(self):
        spec = SyntheticSpec(name="straps", seed=7, cols=20, rows=20, num_nets=4,
                             strap_period=3, row_spacing=3, cell_spacing=3)
        design = generate_design(spec)
        grid = RoutingGrid(design)
        for obstacle in design.obstacles:
            if not obstacle.name.startswith("strap"):
                continue
            assert grid.vertices_covering(obstacle.layer, obstacle.rect) == []
