"""Golden trace CSVs: every solver path, pinned byte for byte.

Each case runs one solver on one small plant and compares the trace CSV
text, the stop reason and the oracle's experiment count with the files in
``tests/golden/``.  The grid covers all five kinds, reset periods, estimator
overrides, decaying steps with and without ``decay_a``, noise on and off, a
budget-stopped run, a SISO plant without states, an N=1 plant and a zero
plant (degenerate direction).  These plants are small, so their operator is
applied as a dense product; a plant of exactly ``STRUCTURED_MIN_ENTRIES``
entries pins the FFT branch byte for byte as well.  The same grid with every
plant applied by FFT convolution must give the same runs up to rounding.

Regenerate the files only when a change of behaviour is intended:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import json
import os

import numpy as np
import pytest

import cgilc.lifted
from cgilc import (
    LiftedSystem,
    NoiseModel,
    PlantOracle,
    SolverConfig,
    generate_system,
    lift,
    make_step_disturbance,
    run_solver,
)
from cgilc.traces import trace_to_csv

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MANIFEST = os.path.join(GOLDEN_DIR, "manifest.json")

PLANTS = {
    "mimo": lambda: lift(generate_system(3, 2, 3, 1), 6),
    "siso0": lambda: lift(generate_system(0, 1, 1, 2), 8),
    "n1": lambda: lift(generate_system(2, 2, 2, 3), 1),
    "zero": lambda: LiftedSystem(np.zeros((4, 2, 2))),
    # 64^2 * 8 * 8 = 2^18 entries: the smallest operator applied by FFT convolution
    "fft": lambda: lift(generate_system(6, 8, 8, 4), 64),
}

NOISY = NoiseModel("gaussian", 0.05, seed=7)

CONFIGS = {
    "stoch_cg": SolverConfig("stoch_cg", max_iterations=10, seed=3),
    "stoch_cg_reset2": SolverConfig("stoch_cg", max_iterations=10, reset_period=2, seed=3),
    "stoch_cg_full": SolverConfig("stoch_cg", max_iterations=8, estimator="full"),
    "det_cg": SolverConfig("det_cg", max_iterations=10),
    "det_cg_reset3": SolverConfig("det_cg", max_iterations=10, reset_period=3),
    "det_cg_single": SolverConfig("det_cg", max_iterations=10, estimator="single", seed=4),
    "stoch_gd": SolverConfig("stoch_gd", max_iterations=10, seed=5),
    "stoch_gd_decay_a": SolverConfig("stoch_gd", max_iterations=10, seed=5,
                                     step_mode="decaying", decay_a=0.05),
    "stoch_gd_decay_anchor": SolverConfig("stoch_gd", max_iterations=10, seed=5,
                                          step_mode="decaying"),
    "det_gd": SolverConfig("det_gd", max_iterations=10),
    "det_gd_decay_anchor": SolverConfig("det_gd", max_iterations=10, step_mode="decaying",
                                        decay_gamma=0.8),
    "det_gd_single": SolverConfig("det_gd", max_iterations=10, estimator="single", seed=6),
    "norm_optimal": SolverConfig("norm_optimal"),
}

# (case name, plant, config, noisy, budget)
CASES = [
    *[(f"mimo_{name}", "mimo", name, False, None) for name in CONFIGS],
    *[(f"mimo_noisy_{name}", "mimo", name, True, None)
      for name in ("stoch_cg_reset2", "det_cg", "stoch_gd_decay_anchor", "det_gd_decay_anchor",
                   "norm_optimal")],
    ("mimo_budget37_stoch_cg", "mimo", "stoch_cg", False, 37),
    ("mimo_noisy_budget37_det_gd", "mimo", "det_gd", True, 37),
    *[(f"siso0_{name}", "siso0", name, False, None)
      for name in ("stoch_cg", "det_cg", "stoch_gd_decay_a", "norm_optimal")],
    *[(f"n1_{name}", "n1", name, False, None)
      for name in ("stoch_cg", "det_cg_reset3", "det_gd", "norm_optimal")],
    ("n1_noisy_stoch_cg", "n1", "stoch_cg", True, None),
    ("zero_stoch_cg", "zero", "stoch_cg", False, None),
    ("fft_stoch_cg", "fft", "stoch_cg", False, None),
    ("fft_noisy_det_cg", "fft", "det_cg", True, None),
    ("fft_stoch_gd", "fft", "stoch_gd", False, None),
]


def run_case(plant, config, noisy, budget):
    system = PLANTS[plant]()
    oracle = PlantOracle(system, make_step_disturbance(system.N, system.n_o, 1.0),
                         NOISY if noisy else NoiseModel())
    trace = run_solver(oracle, CONFIGS[config], budget=budget, system=system)
    return trace_to_csv(trace), trace.stop_reason, oracle.snapshot_count()


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".csv")


@pytest.fixture(scope="module")
def manifest():
    with open(MANIFEST) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,plant,config,noisy,budget", CASES, ids=[c[0] for c in CASES])
def test_trace_matches_golden(manifest, name, plant, config, noisy, budget):
    csv, stop_reason, experiments = run_case(plant, config, noisy, budget)
    with open(_golden_path(name), newline="") as fh:
        assert csv == fh.read()
    assert {"stop_reason": stop_reason, "experiments": experiments} == manifest[name]


@pytest.mark.parametrize("name,plant,config,noisy,budget", CASES, ids=[c[0] for c in CASES])
def test_structured_apply_matches_golden(manifest, monkeypatch, name, plant, config, noisy,
                                         budget):
    """Every plant applied by FFT convolution: the same run up to rounding."""
    monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
    csv, stop_reason, experiments = run_case(plant, config, noisy, budget)
    assert {"stop_reason": stop_reason, "experiments": experiments} == manifest[name]
    with open(_golden_path(name), newline="") as fh:
        golden = [line.split(",") for line in fh.read().splitlines()]
    got = [line.split(",") for line in csv.splitlines()]
    assert len(got) == len(golden) and got[0] == golden[0]
    # a cost that the dense product rounds to exactly 0 (an exact fit) keeps a
    # residue of order (eps * ||r||)^2 on the FFT path
    floor = 1e-24 * float(golden[1][3])
    for row, ref in zip(got[1:], golden[1:]):
        # j, experiments_cum and reset exactly; both costs to 1e-9 relative
        assert (row[0], row[1], row[6]) == (ref[0], ref[1], ref[6])
        for cost, ref_cost in zip(row[2:4], ref[2:4]):
            assert float(cost) == pytest.approx(float(ref_cost), rel=1e-9, abs=floor)


def test_fft_plant_is_applied_by_fft_and_the_others_densely():
    assert PLANTS["fft"]()._spectrum is not None
    for name, build in PLANTS.items():
        if name != "fft":
            assert build()._spectrum is None


def test_manifest_lists_exactly_the_cases(manifest):
    assert sorted(manifest) == sorted(c[0] for c in CASES)
    on_disk = sorted(f[:-4] for f in os.listdir(GOLDEN_DIR) if f.endswith(".csv"))
    assert on_disk == sorted(manifest)


def _write_golden():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    manifest = {}
    for name, plant, config, noisy, budget in CASES:
        csv, stop_reason, experiments = run_case(plant, config, noisy, budget)
        with open(_golden_path(name), "w", newline="\n") as fh:
            fh.write(csv)
        manifest[name] = {"stop_reason": stop_reason, "experiments": experiments}
    with open(MANIFEST, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _write_golden()
