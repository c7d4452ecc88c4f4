import json
import os

import numpy as np
import pytest

from cgilc import NoiseModel, SolverConfig, generate_system, save_system
from cgilc.bench import (
    BenchmarkSpec,
    GenerateSource,
    StepDisturbance,
    UsageError,
    load_spec,
    run_benchmark,
    spec_from_json,
    summarize_trace,
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
    def test_round_trip(self):
        trace = synthetic_trace([4.0, 1.0, 0.25])
        text = trace_to_csv(trace)
        assert text.splitlines()[0] == "j,experiments_cum,cost_measured,cost_true,epsilon,tau,reset"
        path = "/tmp/_trace_rt.csv"
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


class TestSpecParsing:
    def test_parses_minimal_spec(self):
        spec = spec_from_json(tiny_spec_doc())
        assert isinstance(spec.system, GenerateSource)
        assert isinstance(spec.disturbance, StepDisturbance)
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

    def test_master_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("ILC_MASTER_SEED", "77")
        spec = spec_from_json(tiny_spec_doc())
        assert spec.seeds == (77,)

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
        header = open(result.summary_path).readline().strip()
        assert header.split(",")[:4] == ["label", "kind", "run_seed", "status"]

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

    def test_all_unreadable_raises(self, tmp_path):
        with pytest.raises(ValueError):
            plot_traces([str(tmp_path / "nope.csv")], tmp_path / "fig.svg")

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

    def test_non_finite_custom_disturbance_is_usage_error(self, tmp_path, capsys):
        doc = self.custom_disturbance_doc(tmp_path, {"N": 6, "channels": 2,
                                                     "data": [float("nan")] + [0.5] * 11})
        assert self.run_doc(tmp_path, doc) == 2
        assert "non-finite" in capsys.readouterr().err

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

    def test_plot_all_missing_fails(self, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "f.svg"),
                     str(tmp_path / "missing.csv")]) == 1
