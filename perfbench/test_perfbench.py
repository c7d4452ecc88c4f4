"""Self-tests of the benchmark: ``python -m pytest perfbench`` from the repository root."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import run  # noqa: E402
from cgilc.lifted import StateSpace, lift  # noqa: E402
from cgilc.solvers import run_solver  # noqa: E402
from cgilc.traces import write_trace  # noqa: E402

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "experiments_per_s": "1/s", "iter_ms.p50": "ms",
    "iter_ms.p95": "ms", "peak_rss_mb": "MB", "exp_to_target.mean": "experiments",
}
PER_LAYER_PREFIXES = ("sysgen.", "lifted.", "oracle.", "gradients.", "solvers.", "bench.",
                      "traces.", "plotting.", "tracing.")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"]}, {
        m["name"]: m["unit"] for m in doc["per_layer"]}


def _printed(out: str) -> dict:
    found = {}
    for line in out.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            float(value)
            found[name] = unit
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_toy_workload_prints_every_declared_metric(workload, trace, tmp_path, capsys):
    report = harness.run_workload(workload, 3, 0, bool(trace), str(tmp_path), toy=True)
    result = run.emit(report)
    out = capsys.readouterr().out
    doc, end_to_end, per_layer = _declared()
    printed = _printed(out)
    assert printed == (per_layer if trace else end_to_end)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == printed
    assert "runs_failed.share 0.0 fraction (runs_attempted" in out
    assert "target_hit_rate " in out
    assert workload in {w["name"] for w in doc["workloads"]}
    if trace:
        assert all(name.startswith(PER_LAYER_PREFIXES) for name in printed)
    else:
        assert printed == END_TO_END
        assert "\niter_ms.p99 " in out


def test_counts_repeat_for_a_seed(tmp_path):
    first = harness.run_workload("fig4-noisy", 7, 0, False, str(tmp_path), toy=True)
    again = harness.run_workload("fig4-noisy", 7, 0, False, str(tmp_path), toy=True)
    assert first.metrics["exp_to_target.mean"] == again.metrics["exp_to_target.mean"]
    assert [x for x in first.lines if x.startswith("target_hit_rate")] == [
        x for x in again.lines if x.startswith("target_hit_rate")]


def _fig3_toy_run(tmp_path, perturb: float):
    wl = harness.build_workload("fig3-stoch", 0, toy=True)
    (plant,) = harness.set_up(wl)
    ss = plant.ss
    system = lift(StateSpace(ss.A, ss.B, ss.C, ss.D * (1.0 + perturb)), plant.spec.N)
    spec = wl.runs[0]
    oracle = harness.ClockedOracle(system, plant.r, harness.NoiseModel())
    outcome = harness.Outcome(spec, oracle)
    outcome.trace = run_solver(oracle, spec.cfg, budget=spec.budget)
    outcome.csv_path = str(tmp_path / "run.csv")
    write_trace(outcome.trace, outcome.csv_path)
    return plant, outcome


def test_check_passes_a_run_on_the_nominal_plant(tmp_path):
    plant, outcome = _fig3_toy_run(tmp_path, 0.0)
    assert harness.check_run(plant, outcome) == []


def test_check_flags_an_oracle_built_on_a_perturbed_plant(tmp_path):
    plant, outcome = _fig3_toy_run(tmp_path, 1e-5)
    problems = harness.check_run(plant, outcome)
    assert any("simulated final cost" in p for p in problems), problems


def test_check_flags_a_corrupted_trace_csv(tmp_path):
    plant, outcome = _fig3_toy_run(tmp_path, 0.0)
    with open(outcome.csv_path, "a") as fh:
        fh.write("999,1,1.0,1.0,,,0\n")
    assert any("round-trip" in p for p in harness.check_run(plant, outcome))


def test_state_recursion_matches_the_lifted_product():
    wl = harness.build_workload("sweep-small", 1, toy=True)
    rng = np.random.default_rng(0)
    for plant in harness.set_up(wl):
        p = plant.spec
        u = rng.standard_normal((p.n_i, p.N))
        y = harness.simulate(plant.ss, u).reshape(-1)
        np.testing.assert_allclose(y, plant.system.matrix @ u.reshape(-1), atol=1e-10)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-stoch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
