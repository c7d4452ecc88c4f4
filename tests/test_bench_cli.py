import csv
import json
import os
import re
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from cgilc import (
    LiftedSystem,
    NoiseModel,
    PlantOracle,
    SolverConfig,
    StateSpace,
    generate_system,
    lift,
    make_step_disturbance,
    run_solver,
    save_system,
)
from cgilc.bench import (
    UsageError,
    run_benchmark,
    spec_from_json,
    summarize_trace,
    summary_to_csv,
)
from cgilc.cli import main
from cgilc.plotting import plot_traces
from cgilc.solvers import IterationRecord, RunTrace
from cgilc.traces import read_trace_csv, trace_to_csv, write_trace


def tiny_spec_doc(noise_kind="none", sigma=0.0, budget=200):
    return {
        "system": {"generate": {"n_x": 3, "n_i": 2, "n_o": 2, "N": 6, "seed": 1}},
        "disturbance": {"kind": "step", "amplitude": 1.0},
        "noise": {"kind": noise_kind, "sigma": sigma, "seed": 0},
        "solvers": [
            {"kind": "stoch_cg", "max_iterations": 8, "seed": 0},
            {"kind": "det_gd", "max_iterations": 8},
        ],
        "budget": budget,
        "seeds": [0, 1],
    }


def synthetic_trace(costs, exps=None):
    cfg = SolverConfig("stoch_cg", max_iterations=max(len(costs), 1))
    records = [
        IterationRecord(j + 1, (exps or range(1, len(costs) + 1))[j],
                        c, c, 0.1, None if j == 0 else -0.5, False)
        for j, c in enumerate(costs)
    ]
    return RunTrace(config=cfg, records=records, stop_reason="max_iterations")


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = synthetic_trace([4.0, 1.0, 0.25])
        text = trace_to_csv(trace)
        assert text.splitlines()[0] == "j,experiments_cum,cost_measured,cost_true,epsilon,tau,reset"
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace_csv(path)
        assert [r.j for r in back] == [1, 2, 3]
        assert back[0].tau is None and back[1].tau == -0.5
        assert back[0].cost_measured == 4.0

    def test_17_significant_digits(self):
        trace = synthetic_trace([1.0 / 3.0])
        line = trace_to_csv(trace).splitlines()[1]
        assert "3.3333333333333331e-01" in line

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(p)

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header_only", "blank_lines"])
    def test_rejects_a_file_without_data_rows(self, tmp_path, body):
        p = tmp_path / "empty.csv"
        p.write_text(trace_to_csv(synthetic_trace([])) + body)
        with pytest.raises(ValueError, match="no data rows"):
            read_trace_csv(p)


class TestSpecParsing:
    def test_parses_minimal_spec(self):
        spec = spec_from_json(tiny_spec_doc())
        assert isinstance(spec.system, LiftedSystem)
        assert (spec.system.N, spec.system.n_o, spec.system.n_i) == (6, 2, 2)
        assert (spec.disturbance.space, spec.disturbance.N, spec.disturbance.channels) == (
            "output", 6, 2)
        assert (spec.disturbance.data == 1.0).all()
        assert spec.budget == 200
        assert len(spec.solvers) == 2

    def test_empty_solver_list_is_usage_error(self):
        doc = tiny_spec_doc()
        doc["solvers"] = []
        with pytest.raises(UsageError):
            spec_from_json(doc)

    def test_unknown_solver_field_is_usage_error(self):
        doc = tiny_spec_doc()
        doc["solvers"][0]["quasi_newton"] = True
        with pytest.raises(UsageError):
            spec_from_json(doc)

    def test_bad_budget_is_usage_error(self):
        doc = tiny_spec_doc(budget=0)
        with pytest.raises(UsageError):
            spec_from_json(doc)

    @pytest.mark.parametrize("section,field,value,match", [
        ("spec", "seeds", [], "at least one seed"),
        ("spec", "system", {"file": "sys.json"}, "'generate' or 'load'"),
        ("spec", "disturbance", {"kind": "ramp"}, "unknown disturbance kind 'ramp'"),
        ("spec", "budget", None, "missing spec field: 'budget'"),
        ("spec", "solvers", None, "missing spec field: 'solvers'"),
        ("spec", "disturbance", "step", "disturbance must be a JSON object"),
        ("spec", "noise", [1], "noise must be a JSON object"),
        ("spec", "seed", [3, 4], r"unknown spec fields: \['seed'\]"),
        ("noise", "sigam", 0.3, r"unknown noise fields: \['sigam'\]"),
        ("step", "amplitud", 5.0, r"unknown disturbance fields: \['amplitud'\]"),
        ("system", "laod", "sys.json", r"unknown system fields: \['laod'\]"),
        ("generate", "gain", 200.0, r"unknown generate fields: \['gain'\]"),
        ("system", "load", "sys.json", "exactly one of 'generate' or 'load'"),
        ("spec", "disturbance", {"kind": "custom"}, "missing disturbance field: 'path'"),
        ("spec", "solvers", ["stoch_cg"], "solver must be a JSON object"),
        ("spec", "solvers", {"kind": "stoch_cg"}, "solvers must be a JSON array"),
        ("spec", "seeds", 3, "seeds must be a JSON array"),
        ("spec", "seeds", "01", "seeds must be a JSON array"),
        ("spec", "solvers", [{"kind": "stoch_gd", "reset_period": 20}],
         "neither stoch_gd nor step_mode 'optimal_line_search' reads reset_period"),
        ("spec", "solvers", [{"kind": "stoch_gd", "label": 5}], "label must be a string"),
        ("spec", "seeds", [3, 3], r"seeds must not repeat, got \[3, 3\]"),
        ("spec", "solvers", [{"kind": "det_gd", "estimator": "single"}],
         "neither det_gd nor step_mode 'optimal_line_search' reads estimator"),
    ], ids=["empty_seeds", "no_system_source", "disturbance_kind", "no_budget", "no_solvers",
            "disturbance_string", "noise_list", "spec_seed", "noise_sigam", "step_amplitud",
            "system_laod", "generate_gain", "generate_and_load", "custom_without_path",
            "solver_string", "solvers_object", "seeds_int", "seeds_string",
            "gd_reset_period", "solver_label_int", "repeated_seed", "gd_estimator"])
    def test_malformed_spec_is_usage_error(self, section, field, value, match):
        doc = tiny_spec_doc()
        target = {"spec": doc, "noise": doc["noise"], "step": doc["disturbance"],
                  "system": doc["system"], "generate": doc["system"]["generate"]}[section]
        if value is None:
            del target[field]
        else:
            target[field] = value
        with pytest.raises(UsageError, match=match):
            spec_from_json(doc)

    @pytest.mark.parametrize("field,value,match", [
        ("budget", 2.5, "budget must be an integer, got 2.5"),
        ("budget", True, "budget must be an integer, got True"),
        ("budget", 0, "budget must be >= 1, got 0"),
        ("seeds", (-1,), "seeds entry must be >= 0, got -1"),
        ("seeds", (1.5,), "seeds entry must be an integer, got 1.5"),
        ("seeds", (0, 0), r"seeds must not repeat, got \[0, 0\]"),
    ], ids=["budget_float", "budget_bool", "budget_zero", "seed_negative", "seed_float",
            "seed_repeated"])
    def test_spec_built_directly_checks_its_counts(self, field, value, match):
        spec = spec_from_json(tiny_spec_doc())
        with pytest.raises(UsageError, match=match):
            replace(spec, **{field: value})

    def test_readme_spec_parses(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        spec = spec_from_json(json.loads(block))
        assert (spec.system.n_i, spec.system.n_o, spec.system.N) == (21, 21, 100)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_is_usage_error(self, sigma):
        with pytest.raises(UsageError, match="sigma"):
            spec_from_json(tiny_spec_doc(noise_kind="gaussian", sigma=sigma))

    def test_custom_disturbance_source(self, tmp_path):
        dist_path = tmp_path / "dist.json"
        dist_path.write_text(json.dumps(
            {"N": 6, "channels": 2, "data": [0.5] * 12}))
        doc = tiny_spec_doc()
        doc["disturbance"] = {"kind": "custom", "path": str(dist_path)}
        spec = spec_from_json(doc)
        result = run_benchmark(spec, tmp_path / "out")
        assert all(s.status == "ok" for s in result.summaries)
        # J(f1) = ||r||^2 = 12 * 0.25
        assert result.summaries[0].initial_cost == pytest.approx(3.0)

    def test_load_system_source(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, generate_system(3, 2, 2, seed=9), N=5)
        doc = tiny_spec_doc()
        doc["system"] = {"load": str(sys_path)}
        spec = spec_from_json(doc)
        result = run_benchmark(spec, tmp_path / "out")
        assert all(s.status == "ok" for s in result.summaries)


class TestRunBenchmark:
    def test_writes_traces_and_summary(self, tmp_path):
        spec = spec_from_json(tiny_spec_doc())
        result = run_benchmark(spec, tmp_path)
        assert len(result.summaries) == 4  # 2 solvers x 2 seeds
        for s in result.summaries:
            assert s.status == "ok"
            assert os.path.exists(s.csv_path)
        assert os.path.exists(result.summary_path)
        with open(result.summary_path) as fh:
            header = fh.readline().strip()
        assert header.split(",")[:4] == ["label", "kind", "run_seed", "status"]

    def test_summary_keeps_stop_reason_notes_and_quoted_labels(self, tmp_path):
        # n_x = 0 and D = 0 lift to the zero plant: norm_optimal notes the
        # rank-deficient fallback, stoch_cg stops on a degenerate direction
        sys_path = tmp_path / "zero.json"
        save_system(sys_path, StateSpace(np.zeros((0, 0)), np.zeros((0, 2)),
                                         np.zeros((2, 0)), np.zeros((2, 2))), N=4)
        doc = tiny_spec_doc()
        doc["system"] = {"load": str(sys_path)}
        doc["solvers"] = [{"kind": "norm_optimal", "label": "nopt, zero plant"},
                          {"kind": "stoch_cg", "max_iterations": 5}]
        doc["seeds"] = [0]
        result = run_benchmark(spec_from_json(doc), tmp_path / "out")
        with open(result.summary_path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[-2:] == ["stop_reason", "notes"]
        assert all(len(row) == len(header) for row in rows)
        nopt, scg = (dict(zip(header, row)) for row in rows)
        assert nopt["label"] == "nopt, zero plant"
        assert nopt["kind"] == "norm_optimal"
        assert nopt["stop_reason"] == "completed"
        assert nopt["notes"] == "rank-deficient model (rank 0); pseudo-inverse update"
        assert scg["stop_reason"] == "degenerate_direction"
        assert scg["notes"] == ""

    def test_byte_identical_across_invocations(self, tmp_path):
        spec = spec_from_json(tiny_spec_doc(noise_kind="gaussian", sigma=0.02))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_benchmark(spec, out_a)
        run_benchmark(spec, out_b)
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seeds_produce_distinct_noisy_runs(self, tmp_path):
        spec = spec_from_json(tiny_spec_doc(noise_kind="gaussian", sigma=0.05))
        result = run_benchmark(spec, tmp_path)
        stoch = [s for s in result.summaries if s.kind == "stoch_cg"]
        assert stoch[0].final_cost_measured != stoch[1].final_cost_measured

    def test_norm_optimal_gets_model_access(self, tmp_path):
        doc = tiny_spec_doc()
        doc["solvers"] = [{"kind": "norm_optimal"}]
        result = run_benchmark(spec_from_json(doc), tmp_path)
        assert all(s.status == "ok" for s in result.summaries)
        assert all(s.final_cost_true <= 1e-16 * s.initial_cost
                   for s in result.summaries)

    def test_thresholds_monotone_in_threshold(self, tmp_path):
        spec = spec_from_json(tiny_spec_doc())
        result = run_benchmark(spec, tmp_path)
        for s in result.summaries:
            reached = [s.experiments_to[th] for th in (1e-1, 1e-2, 1e-3)
                       if s.experiments_to[th] is not None]
            assert reached == sorted(reached)


class TestSummaries:
    def test_divergence_flag(self):
        diverging = synthetic_trace([1.0, 0.5, 2.0])
        assert summarize_trace(diverging, noisy=True).diverged
        converging = synthetic_trace([1.0, 0.5, 0.1])
        assert not summarize_trace(converging, noisy=True).diverged
        for last in (float("nan"), float("inf")):
            assert summarize_trace(synthetic_trace([1.0, 0.5, last]), noisy=True).diverged

    def test_a_run_whose_cost_overflows_is_diverged(self):
        J = lift(generate_system(3, 2, 2, 1), 6)
        oracle = PlantOracle(J, make_step_disturbance(J.N, J.n_o), NoiseModel())
        cfg = SolverConfig("stoch_gd", max_iterations=60, step_mode="decaying", decay_a=1e120,
                           seed=1)
        summary = summarize_trace(run_solver(oracle, cfg), noisy=False)
        row = summary_to_csv([summary]).splitlines()[1]
        assert row.split(",")[8:] == ["inf", "inf", "1", "non_finite", ""]

    def test_threshold_basis_true_vs_measured(self):
        cfg = SolverConfig("det_cg")
        records = [
            IterationRecord(1, 1, 10.0, 8.0, 0.1, None, False),
            IterationRecord(2, 4, 5.0, 0.5, 0.1, None, False),
        ]
        trace = RunTrace(config=cfg, records=records)
        noisefree = summarize_trace(trace, noisy=False)
        noisy = summarize_trace(trace, noisy=True)
        assert noisefree.experiments_to[1e-1] == 4   # 0.5 <= 0.1 * 8.0
        assert noisy.experiments_to[1e-1] is None    # 5.0 > 0.1 * 10.0


class TestPlot:
    def test_single_trace_svg(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(synthetic_trace([100.0, 10.0, 1.0]), path)
        out = tmp_path / "fig.svg"
        warnings = plot_traces([str(path)], out)
        assert warnings == []
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        assert "experiments" in svg and "cost" in svg

    def test_two_traces_two_legend_entries(self, tmp_path):
        p1, p2 = tmp_path / "alpha.csv", tmp_path / "beta.csv"
        write_trace(synthetic_trace([100.0, 1.0]), p1)
        write_trace(synthetic_trace([50.0, 2.0]), p2)
        out = tmp_path / "fig.svg"
        plot_traces([str(p1), str(p2)], out)
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert ">alpha<" in svg and ">beta<" in svg

    def test_zero_cost_clamped(self, tmp_path):
        path = tmp_path / "z.csv"
        write_trace(synthetic_trace([1.0, 0.0]), path)
        out = tmp_path / "fig.svg"
        plot_traces([str(path)], out)
        assert "nan" not in out.read_text().lower()

    def test_unreadable_trace_warns_but_renders_rest(self, tmp_path):
        good = tmp_path / "good.csv"
        write_trace(synthetic_trace([10.0, 1.0]), good)
        out = tmp_path / "fig.svg"
        warnings = plot_traces([str(good), str(tmp_path / "missing.csv")], out)
        assert len(warnings) == 1
        assert out.exists()

    def test_non_finite_traces_warn_but_render_rest(self, tmp_path):
        paths = [tmp_path / f"{name}.csv" for name in ("finite", "inf", "nan")]
        for path, last in zip(paths, (1.0, float("inf"), float("nan"))):
            write_trace(synthetic_trace([10.0, 5.0, last]), path)
        out = tmp_path / "fig.svg"
        warnings = plot_traces([str(p) for p in paths], out)
        assert warnings == [f"skipping {paths[1]}: non-finite cost at j=3",
                            f"skipping {paths[2]}: non-finite cost at j=3"]
        svg = out.read_text()
        assert svg.count("<polyline") == 1 and ">finite<" in svg

    def test_all_unreadable_raises(self, tmp_path):
        with pytest.raises(ValueError):
            plot_traces([str(tmp_path / "nope.csv")], tmp_path / "fig.svg")

    def test_legend_escapes_the_file_name(self, tmp_path):
        path = tmp_path / "a&b<c>.csv"
        write_trace(synthetic_trace([10.0, 1.0]), path)
        out = tmp_path / "fig.svg"
        plot_traces([str(path)], out)
        texts = [t.text for t in ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c>" in texts

    def test_one_record_normalized_spans_a_decade(self, tmp_path):
        path = tmp_path / "one.csv"
        write_trace(synthetic_trace([7.0]), path)
        out = tmp_path / "fig.svg"
        plot_traces([str(path)], out, normalize=True)
        svg = out.read_text()
        assert ">1e0<" in svg and ">1e1<" in svg and "nan" not in svg.lower()

    def test_byte_deterministic(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(synthetic_trace([100.0, 10.0, 1.0]), path)
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_traces([str(path)], out1)
        plot_traces([str(path)], out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestCli:
    def test_gen_system_round_trip(self, tmp_path):
        out = tmp_path / "sys.json"
        code = main(["gen-system", "--states", "4", "--inputs", "2", "--outputs", "2",
                     "--seed", "3", "--trial-length", "7", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_x"] == 4 and doc["N"] == 7

    @pytest.mark.parametrize("flag,value,message", [
        ("--states", "-1", "n_x must be >= 0, got -1"),
        ("--inputs", "0", "n_i must be >= 1, got 0"),
        ("--outputs", "0", "n_o must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--feedthrough-gain", "nan", "feedthrough_gain must be finite"),
        ("--trial-length", "0", "N must be >= 1, got 0"),
    ], ids=["states", "inputs", "outputs", "seed", "feedthrough_gain", "trial_length"])
    def test_gen_system_bad_argument_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "sys.json"
        code = main(["gen-system", "--states", "4", "--inputs", "2", "--outputs", "2",
                     flag, value, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_run_and_plot(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(tiny_spec_doc()))
        out_dir = tmp_path / "runs"
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
        csvs = sorted(str(out_dir / n) for n in os.listdir(out_dir)
                      if n.endswith(".csv") and n != "summary.csv")
        assert csvs
        fig = tmp_path / "fig.svg"
        assert main(["plot", "--out", str(fig), *csvs]) == 0
        assert fig.exists()

    def test_gen_system_to_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        assert main(["gen-system", "--states", "2", "--inputs", "1", "--outputs", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: cannot write {out}: ")

    def test_run_into_a_file_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(tiny_spec_doc()))
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(spec_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: cannot create output directory {spec_path}: ")

    @pytest.mark.parametrize("blocked", ["00_stoch_cg_s0.csv", "summary.csv"])
    def test_run_to_an_unwritable_output_is_usage_error(self, tmp_path, capsys, blocked):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(tiny_spec_doc()))
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)  # a directory where the file should go
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: cannot write {out_dir / blocked}: ")

    def test_unreadable_spec_is_usage_error(self, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_empty_solvers_is_usage_error(self, tmp_path):
        doc = tiny_spec_doc()
        doc["solvers"] = []
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 2

    def run_doc(self, tmp_path, doc):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(doc))
        return main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")])

    def custom_disturbance_doc(self, tmp_path, dist):
        dist_path = tmp_path / "dist.json"
        dist_path.write_text(json.dumps(dist))
        doc = tiny_spec_doc()
        doc["disturbance"] = {"kind": "custom", "path": str(dist_path)}
        return doc

    def test_mismatched_custom_disturbance_is_usage_error(self, tmp_path, capsys):
        doc = self.custom_disturbance_doc(tmp_path, {"N": 5, "channels": 2, "data": [0.5] * 10})
        assert self.run_doc(tmp_path, doc) == 2
        assert "the plant has N=6 and 2 outputs" in capsys.readouterr().err

    def test_disturbance_without_channels_is_usage_error(self, tmp_path, capsys):
        doc = self.custom_disturbance_doc(tmp_path, {"N": 6, "data": [0.5] * 12})
        assert self.run_doc(tmp_path, doc) == 2
        assert "lacks field 'channels'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["N", "C"])
    def test_system_file_without_a_field_is_usage_error(self, tmp_path, capsys, field):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, generate_system(3, 2, 2, seed=9), N=5)
        sys_doc = json.loads(sys_path.read_text())
        del sys_doc[field]
        sys_path.write_text(json.dumps(sys_doc))
        doc = tiny_spec_doc()
        doc["system"] = {"load": str(sys_path)}
        assert self.run_doc(tmp_path, doc) == 2
        assert f"system file lacks field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("N", 5.9), ("N", True), ("n_i", 2.0)])
    def test_system_file_with_a_non_integer_count_is_usage_error(self, tmp_path, capsys,
                                                                field, value):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, generate_system(3, 2, 2, seed=9), N=5)
        sys_doc = json.loads(sys_path.read_text())
        sys_doc[field] = value
        sys_path.write_text(json.dumps(sys_doc))
        doc = tiny_spec_doc()
        doc["system"] = {"load": str(sys_path)}
        assert self.run_doc(tmp_path, doc) == 2
        assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("N", 6.5), ("channels", True)])
    def test_disturbance_file_with_a_non_integer_count_is_usage_error(self, tmp_path, capsys,
                                                                     field, value):
        dist = {"N": 6, "channels": 2, "data": [0.5] * 12}
        dist[field] = value
        assert self.run_doc(tmp_path, self.custom_disturbance_doc(tmp_path, dist)) == 2
        assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err

    def test_non_finite_custom_disturbance_is_usage_error(self, tmp_path, capsys):
        doc = self.custom_disturbance_doc(tmp_path, {"N": 6, "channels": 2,
                                                     "data": [float("nan")] + [0.5] * 11})
        assert self.run_doc(tmp_path, doc) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("section,field,value,message", [
        ("solver", "max_iterations", 2.5, "max_iterations must be an integer"),
        ("solver", "max_iterations", True, "max_iterations must be an integer"),
        ("solver", "reset_period", 1.5, "reset_period must be an integer"),
        ("solver", "seed", 1.5, "seed must be an integer"),
        ("spec", "budget", 200.7, "budget must be an integer"),
        ("spec", "seeds", [0.5], "seeds entry must be an integer"),
        ("noise", "seed", 0.5, "noise seed must be an integer"),
        ("generate", "seed", 1.5, "seed must be an integer"),
        ("generate", "seed", False, "seed must be an integer"),
        ("generate", "N", 5.9, "N must be an integer"),
        ("generate", "n_i", True, "n_i must be an integer"),
        ("generate", "n_x", 3.0, "n_x must be an integer"),
        ("generate", "N", 0, "N must be >= 1, got 0"),
        ("generate", "n_x", -1, "n_x must be >= 0, got -1"),
        ("generate", "n_i", 0, "n_i must be >= 1, got 0"),
        ("generate", "seed", -1, "seed must be >= 0, got -1"),
        ("step", "amplitude", float("nan"), "amplitude must be finite"),
        ("step", "amplitude", float("inf"), "amplitude must be finite"),
        ("spec", "seeds", [-1], "seeds entry must be >= 0, got -1"),
        ("solver", "seed", -1, "seed must be >= 0, got -1"),
        ("noise", "seed", -1, "noise seed must be >= 0, got -1"),
        ("noise", "sigma", True, "sigma must be a real number, got True"),
        ("noise", "sigma", "0.3", "sigma must be a real number, got '0.3'"),
        ("step", "amplitude", "5", "amplitude must be a real number, got '5'"),
        ("generate", "feedthrough_gain", True, "feedthrough_gain must be a real number"),
        ("decaying", "decay_a", True, "decay_a must be a real number, got True"),
        ("decaying", "decay_gamma", True, "decay_gamma must be a real number, got True"),
        ("decaying", "decay_a", float("inf"), "decay_a must be finite and > 0"),
        ("solver", "label", 5, "label must be a string, got 5"),
        ("spec", "seeds", [3, 3], "seeds must not repeat, got [3, 3]"),
        ("decaying", "estimator", "full", "neither det_gd nor step_mode 'decaying' reads estimator")])
    def test_non_integer_count_or_seed_exits_2(self, tmp_path, capsys, section, field, value,
                                               message):
        doc = tiny_spec_doc()
        doc["solvers"][1]["step_mode"] = "decaying"  # so that the det_gd decay fields are read
        target = {"solver": doc["solvers"][0], "spec": doc, "noise": doc["noise"],
                  "generate": doc["system"]["generate"], "step": doc["disturbance"],
                  "decaying": doc["solvers"][1]}[section]
        target[field] = value
        assert self.run_doc(tmp_path, doc) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_custom_disturbance_file_is_usage_error(self, tmp_path):
        doc = tiny_spec_doc()
        doc["disturbance"] = {"kind": "custom", "path": str(tmp_path / "none.json")}
        assert self.run_doc(tmp_path, doc) == 2

    def test_missing_system_file_is_usage_error(self, tmp_path):
        doc = tiny_spec_doc()
        doc["system"] = {"load": str(tmp_path / "none.json")}
        assert self.run_doc(tmp_path, doc) == 2

    def test_budget_below_first_iteration_records_errors(self, tmp_path, capsys):
        doc = tiny_spec_doc(budget=1)
        doc["solvers"].append({"kind": "norm_optimal"})
        assert self.run_doc(tmp_path, doc) == 0
        assert "6 runs (6 failed)" in capsys.readouterr().out
        summary = (tmp_path / "out" / "summary.csv").read_text()
        for first in (3, 6, 2):  # stoch_cg, det_gd on 2x2 channels, norm_optimal
            assert summary.count(f"error: budget 1 cannot pay for the {first} experiments") == 2

    def test_plot_normalize_starts_every_curve_at_one(self, tmp_path):
        p1, p2 = tmp_path / "alpha.csv", tmp_path / "beta.csv"
        write_trace(synthetic_trace([100.0, 1.0]), p1)
        write_trace(synthetic_trace([0.5, 0.05]), p2)
        plain, normalized = tmp_path / "plain.svg", tmp_path / "normalized.svg"
        assert main(["plot", "--out", str(plain), str(p1), str(p2)]) == 0
        assert main(["plot", "--normalize", "--out", str(normalized), str(p1), str(p2)]) == 0

        def first_ys(svg):
            return [float(pts.split()[0].split(",")[1])
                    for pts in re.findall(r'<polyline points="([^"]+)"', svg.read_text())]

        assert len(set(first_ys(plain))) == 2
        ys = first_ys(normalized)
        assert len(ys) == 2 and ys[0] == ys[1]
        assert ">1e0<" in normalized.read_text()  # the decade that the curves start on

    def test_plot_warns_about_an_unreadable_trace(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        write_trace(synthetic_trace([10.0, 1.0]), good)
        missing = tmp_path / "missing.csv"
        assert main(["plot", "--out", str(tmp_path / "f.svg"), str(good), str(missing)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"warning: skipping {missing}: ")

    def test_plot_to_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        write_trace(synthetic_trace([10.0, 1.0]), trace)
        out = tmp_path / "missing" / "f.svg"
        assert main(["plot", "--out", str(out), str(trace)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: cannot write {out}: ")

    def test_plot_of_only_non_finite_traces_says_why(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        write_trace(synthetic_trace([10.0, float("inf")]), trace)
        assert main(["plot", "--out", str(tmp_path / "f.svg"), str(trace)]) == 1
        assert capsys.readouterr().err == (f"error: no readable traces; skipping {trace}: "
                                           "non-finite cost at j=2\n")
        assert not (tmp_path / "f.svg").exists()

    def test_plot_all_missing_fails(self, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "f.svg"),
                     str(tmp_path / "missing.csv")]) == 1
