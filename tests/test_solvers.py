import itertools
import math

import numpy as np
import pytest

from cgilc import (
    LiftedSystem,
    NoiseModel,
    PlantOracle,
    Signal,
    SolverConfig,
    generate_system,
    lift,
    make_step_disturbance,
    run_solver,
)
from cgilc.gradients import mask_stream
from cgilc.rng import MASK_STREAM, combine, stream
from cgilc.solvers import (
    _conjugation_coefficient,
    _degenerate,
    _fletcher_reeves_coefficient,
    _optimal_step,
)
from conftest import rel_err, small_system


def fresh_oracle(J, noise=NoiseModel(), amplitude=1.0):
    return PlantOracle(J, make_step_disturbance(J.N, J.n_o, amplitude), noise)


def cost_of(J, r, f):
    e = r - J.matrix @ f
    return float(e @ e)


class TestCoefficients:
    def test_conjugation_zero_when_orthogonal(self):
        a, b = np.array([[1.0], [0.0]]), np.array([[0.0], [3.0]])
        assert _conjugation_coefficient(a, b, 1.0) == 0.0

    def test_conjugation_minus_one_when_equal(self, rng):
        v = rng.standard_normal((2, 3))
        tau = _conjugation_coefficient(v, v, np.vdot(v, v))
        assert tau == pytest.approx(-1.0, rel=1e-15)

    def test_constructed_direction_is_conjugate(self, rng):
        _, J = small_system(seed=1, n_i=2, n_o=2, N=6)
        for _ in range(20):
            p_prev = rng.standard_normal(J.N * J.n_i)
            g_new = rng.standard_normal(J.N * J.n_i)
            Jp = J.matrix @ p_prev
            Jg = J.matrix @ g_new
            tau = _conjugation_coefficient(Jp, Jg, Jp @ Jp)
            Jp_new = J.matrix @ (g_new + tau * p_prev)
            bound = 1e-10 * np.sqrt((Jp @ Jp) * (Jp_new @ Jp_new))
            assert abs(Jp @ Jp_new) <= max(bound, 1e-300)

    def test_conjugation_degenerate_denominator(self):
        # the loop conjugates only against a J p_prev that is not zero next to
        # ||p_prev||^2 times the gain estimate
        assert _degenerate(1.0, 0.0, 0.0)
        assert _degenerate(4.0, 1e-15 * 4.0 * 2.0, 2.0)
        assert not _degenerate(4.0, 1e-13 * 4.0 * 2.0, 2.0)

    def test_fletcher_reeves_identity_and_zero(self, rng):
        g = rng.standard_normal(8)
        g_sq = g @ g
        assert _fletcher_reeves_coefficient(g_sq, g_sq) == pytest.approx(1.0, rel=1e-15)
        assert _fletcher_reeves_coefficient(0.0, g_sq) == 0.0


class TestOptimalStep:
    def test_unit_step_when_direction_matches_error(self, rng):
        e = rng.standard_normal((2, 3))
        eps = _optimal_step(e, e, np.vdot(e, e))
        assert eps == pytest.approx(1.0, rel=1e-15)

    def test_zero_when_orthogonal(self):
        e, Jp = np.array([[1.0], [0.0]]), np.array([[0.0], [2.0]])
        assert _optimal_step(e, Jp, 4.0) == 0.0

    @pytest.mark.parametrize("Jp_sq", [0.0, -1.0])
    def test_degenerate_denominator(self, Jp_sq):
        # no optimal step is taken along a direction whose ||J p||^2 is not positive
        for p_sq, gain_sq in ((1.0, 0.0), (1.0, 3.0), (0.0, 0.0)):
            assert _degenerate(p_sq, Jp_sq, gain_sq)

    def test_line_scan_minimality(self, rng):
        _, J = small_system(seed=2, n_i=2, n_o=2, N=6)
        r = make_step_disturbance(J.N, J.n_o, 1.0).data
        for _ in range(25):
            f = rng.standard_normal(J.N * J.n_i)
            p = rng.standard_normal(J.N * J.n_i)
            e = r - J.matrix @ f
            Jp = J.matrix @ p
            eps = _optimal_step(e, Jp, Jp @ Jp)
            best = cost_of(J, r, f + eps * p)
            delta = 1e-3 / np.linalg.norm(p)
            assert best <= cost_of(J, r, f + (eps + delta) * p) + 1e-12
            assert best <= cost_of(J, r, f + (eps - delta) * p) + 1e-12
            assert best <= cost_of(J, r, f) + 1e-12


class TestExperimentAccounting:
    def test_stochastic_cg_three_then_four(self):
        _, J = small_system(seed=1)
        trace = run_solver(fresh_oracle(J),
                           SolverConfig("stoch_cg", max_iterations=6, seed=0))
        exps = [r.experiments_cum for r in trace.records]
        assert exps[0] == 1
        assert np.diff(exps).tolist() == [3, 4, 4, 4, 4]

    def test_stochastic_cg_resets_skip_conjugation_probe(self):
        _, J = small_system(seed=1)
        trace = run_solver(fresh_oracle(J),
                           SolverConfig("stoch_cg", max_iterations=7,
                                        reset_period=2, seed=0))
        exps = [r.experiments_cum for r in trace.records]
        # resets at j = 3, 5, 7 omit the J g probe
        assert np.diff(exps).tolist() == [3, 4, 3, 4, 3, 4]
        assert [r.reset for r in trace.records] == [False, False, True, False, True,
                                                    False, True]

    def test_deterministic_methods_pairs_plus_two(self):
        _, J = small_system(seed=1, n_i=2, n_o=3)
        m = 6
        for kind in ("det_cg", "det_gd"):
            trace = run_solver(fresh_oracle(J), SolverConfig(kind, max_iterations=4))
            exps = [r.experiments_cum for r in trace.records]
            assert exps[0] == 1
            assert all(d == m + 2 for d in np.diff(exps))

    def test_stochastic_gd_costs(self):
        _, J = small_system(seed=1)
        opt = run_solver(fresh_oracle(J),
                         SolverConfig("stoch_gd", max_iterations=5, seed=3))
        assert np.diff([r.experiments_cum for r in opt.records]).tolist() == [3, 3, 3, 3]
        dec = run_solver(
            fresh_oracle(J),
            SolverConfig("stoch_gd", max_iterations=5, seed=3,
                         step_mode="decaying", decay_a=0.1))
        assert np.diff([r.experiments_cum for r in dec.records]).tolist() == [2, 2, 2, 2]
        anchored = run_solver(
            fresh_oracle(J),
            SolverConfig("stoch_gd", max_iterations=5, seed=3, step_mode="decaying"))
        assert np.diff([r.experiments_cum for r in anchored.records]).tolist() == [3, 2, 2, 2]


class TestStochasticCg:
    def test_siso_matches_deterministic_cg(self):
        _, J = small_system(seed=6, n_i=1, n_o=1, N=10)
        stoch = run_solver(fresh_oracle(J),
                           SolverConfig("stoch_cg", max_iterations=8, seed=0))
        det = run_solver(fresh_oracle(J),
                         SolverConfig("det_cg", max_iterations=8))
        for rs, rd in zip(stoch.records, det.records):
            assert rel_err(rs.cost_true, rd.cost_true) < 1e-8

    def test_true_cost_never_increases_noise_free(self):
        for seed in range(20):
            _, J = small_system(seed=seed % 5, n_i=2, n_o=2, N=6)
            trace = run_solver(
                fresh_oracle(J), SolverConfig("stoch_cg", max_iterations=15, seed=seed))
            costs = [r.cost_true for r in trace.records]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))

    def test_deterministic_given_seed(self):
        _, J = small_system(seed=2)
        noise = NoiseModel("gaussian", 0.02, seed=4)
        cfg = SolverConfig("stoch_cg", max_iterations=12, seed=9)
        a = run_solver(fresh_oracle(J, noise), cfg)
        b = run_solver(fresh_oracle(J, noise), cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb
        assert np.array_equal(a.final_input.data, b.final_input.data)

    def test_budget_stops_run(self):
        _, J = small_system(seed=1)
        trace = run_solver(fresh_oracle(J),
                           SolverConfig("stoch_cg", max_iterations=50, seed=0),
                           budget=20)
        assert trace.stop_reason == "budget"
        assert trace.records[-1].experiments_cum <= 20

    def test_replay_with_mask_stream_and_trajectory_conjugacy(self):
        # rebuild the whole run offline from the mask stream; successive
        # direction pairs must be J^T J-conjugate despite the random masks
        from reference import TimeReversal

        _, J = small_system(seed=4, n_i=2, n_o=3, N=6)
        cfg = SolverConfig("stoch_cg", max_iterations=12, seed=21)
        trace = run_solver(fresh_oracle(J), cfg)
        r = make_step_disturbance(J.N, J.n_o, 1.0).data
        Jm = J.matrix
        rev_in, rev_out = TimeReversal(J.N, J.n_i), TimeReversal(J.N, J.n_o)
        mask_rng = stream(cfg.seed, MASK_STREAM)
        f = np.zeros(J.N * J.n_i)
        p = Jp_prev = None
        for k, rec in enumerate(trace.records):
            e = r - Jm @ f
            assert rel_err(float(e @ e), rec.cost_true) < 1e-10
            if rec.epsilon is None:
                break
            a = mask_rng.integers(0, 2, size=(J.n_i, J.n_o)) * 2.0 - 1.0

            def mix(mat, v, ch_in):
                return (mat @ v.reshape(ch_in, J.N)).reshape(-1)

            g = -2.0 * rev_in(mix(a, Jm @ mix(a, rev_out(e), J.n_o), J.n_o))
            if k == 0:
                p = g
            else:
                Jg = Jm @ g
                tau = -(Jp_prev @ Jg) / (Jp_prev @ Jp_prev)
                assert rel_err(tau, rec.tau) < 1e-9
                p = g + tau * p
            Jp = Jm @ p
            if Jp_prev is not None:
                bound = 1e-10 * np.linalg.norm(Jp_prev) * np.linalg.norm(Jp)
                assert abs(Jp_prev @ Jp) <= max(bound, 1e-300)
            eps = (e @ Jp) / (Jp @ Jp)
            assert rel_err(eps, rec.epsilon) < 1e-9
            f = f + eps * p
            Jp_prev = Jp


class TestDeterministicCg:
    @pytest.mark.parametrize("N", [8, 16])
    def test_finite_termination_small_system(self, N):
        # dimensions N*n_i = 16 and 32; well-conditioned seed
        _, J = small_system(seed=1, n_x=4, n_i=2, n_o=2, N=N)
        dim = N * 2
        trace = run_solver(fresh_oracle(J),
                           SolverConfig("det_cg", max_iterations=dim + 5))
        j0 = trace.records[0].cost_true
        hit = [r.j for r in trace.records if r.cost_true <= 1e-16 * j0]
        assert hit, "never reached 1e-16 of the initial cost"
        assert hit[0] <= dim + 1  # at most dim updates
        assert trace.stop_reason == "cost_tol"

    def test_replay_matches_and_directions_conjugate(self):
        # offline replay of the same recursion; checks the solver's arithmetic
        # and the pairwise conjugacy of successive directions
        _, J = small_system(seed=1, n_x=4, n_i=2, n_o=2, N=8)
        trace = run_solver(fresh_oracle(J),
                           SolverConfig("det_cg", max_iterations=20))
        r = make_step_disturbance(J.N, J.n_o, 1.0).data
        Jm = J.matrix
        f = np.zeros(J.N * J.n_i)
        p = g_prev = None
        j0 = trace.records[0].cost_true
        for k, rec in enumerate(trace.records):
            e = r - Jm @ f
            assert rel_err(float(e @ e), rec.cost_true) < 1e-10 or rec.cost_true < 1e-12 * j0
            if rec.epsilon is None or rec.cost_true < 1e-12 * j0:
                break
            g = -2.0 * Jm.T @ e
            if k == 0:
                p = g
            else:
                p_old, Jp_old = p, Jm @ p
                p = g + (g @ g) / (g_prev @ g_prev) * p
                Jp_new = Jm @ p
                bound = 1e-10 * np.linalg.norm(Jp_old) * np.linalg.norm(Jp_new)
                assert abs(Jp_old @ Jp_new) <= max(bound, 1e-300)
            Jp = Jm @ p
            eps = (e @ Jp) / (Jp @ Jp)
            assert rel_err(eps, rec.epsilon) < 1e-9
            f = f + eps * p
            g_prev = g

    def test_fletcher_reeves_matches_measured_conjugation(self):
        # with exact gradients the classical ratio and the measured coefficient
        # generate the same direction sequence
        _, J = small_system(seed=1, n_x=4, n_i=2, n_o=2, N=8)
        fr = run_solver(fresh_oracle(J),
                        SolverConfig("det_cg", max_iterations=10))
        measured = run_solver(
            fresh_oracle(J),
            SolverConfig("stoch_cg", max_iterations=10, estimator="full"))
        n = min(len(fr.records), len(measured.records), 10)
        for rf, rm in zip(fr.records[:n], measured.records[:n]):
            assert rel_err(rf.cost_true, rm.cost_true) < 1e-8
            if rf.tau is not None and rm.tau is not None and abs(rf.tau) > 1e-9:
                assert rel_err(rf.tau, rm.tau) < 1e-6


class TestGradientDescent:
    def test_cg_step_at_least_as_good(self):
        # paired comparison along a CG trajectory with exact gradients
        _, J = small_system(seed=4, n_i=2, n_o=2, N=6)
        r = make_step_disturbance(J.N, J.n_o, 1.0).data
        Jm = J.matrix
        rng = np.random.default_rng(0)
        for trial in range(50):
            f = rng.standard_normal(J.N * J.n_i) * 0.3
            p = g_prev = None
            steps = 1 + trial % 4
            for k in range(steps):
                e = r - Jm @ f
                g = -2.0 * Jm.T @ e
                p = g if k == 0 else g + (g @ g) / (g_prev @ g_prev) * p
                Jp = Jm @ p
                eps_cg = (e @ Jp) / (Jp @ Jp)
                Jg = Jm @ g
                eps_gd = (e @ Jg) / (Jg @ Jg)
                cost_cg = cost_of(J, r, f + eps_cg * p)
                cost_gd = cost_of(J, r, f + eps_gd * g)
                assert cost_cg <= cost_gd + 1e-12 * max(1.0, cost_gd)
                g_prev = g
                f = f + eps_cg * p

    def test_krylov_iterates_dominate_gradient_descent(self):
        _, J = small_system(seed=1, n_x=4, n_i=2, n_o=2, N=8)
        cg = run_solver(fresh_oracle(J),
                        SolverConfig("det_cg", max_iterations=12))
        gd = run_solver(fresh_oracle(J),
                        SolverConfig("det_gd", max_iterations=12))
        for rc, rg in zip(cg.records, gd.records):
            assert rc.cost_true <= rg.cost_true * (1 + 1e-10)
        for trace in (cg, gd):
            costs = [r.cost_true for r in trace.records]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))

    def test_decaying_steps_follow_schedule(self):
        _, J = small_system(seed=2)
        a, gamma = 0.05, 0.8
        trace = run_solver(
            fresh_oracle(J),
            SolverConfig("det_gd", max_iterations=5, step_mode="decaying",
                         decay_a=a, decay_gamma=gamma))
        for rec in trace.records:
            assert rec.epsilon == pytest.approx(-a / rec.j ** gamma, rel=1e-15)

    def test_decay_anchor_uses_first_measured_step(self):
        _, J = small_system(seed=2)
        opt = run_solver(fresh_oracle(J),
                         SolverConfig("det_gd", max_iterations=1))
        eps1 = opt.records[0].epsilon
        dec = run_solver(
            fresh_oracle(J),
            SolverConfig("det_gd", max_iterations=4, step_mode="decaying"))
        assert dec.records[0].epsilon == pytest.approx(eps1, rel=1e-12)
        assert dec.records[1].epsilon == pytest.approx(-abs(eps1) / 2, rel=1e-12)


class TestNormOptimal:
    def test_one_shot_reaches_zero_cost(self):
        _, J = small_system(seed=1)
        oracle = fresh_oracle(J)
        trace = run_solver(oracle, SolverConfig("norm_optimal"), system=J)
        assert len(trace.records) == 2
        assert oracle.snapshot_count() == 2
        assert trace.records[1].cost_true <= 1e-16 * trace.records[0].cost_true

    def test_matches_deterministic_cg_limit(self):
        _, J = small_system(seed=1, n_x=4, n_i=2, n_o=2, N=8)
        no = run_solver(fresh_oracle(J), SolverConfig("norm_optimal"), system=J)
        cg = run_solver(fresh_oracle(J),
                        SolverConfig("det_cg", max_iterations=25))
        assert rel_err(no.final_input.data, cg.final_input.data) < 1e-6

    def test_zero_disturbance_leaves_input_unchanged(self):
        _, J = small_system(seed=1)
        trace = run_solver(fresh_oracle(J, amplitude=0.0),
                           SolverConfig("norm_optimal"), system=J)
        assert np.array_equal(trace.final_input.data, np.zeros(J.N * J.n_i))


class TestConfigValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SolverConfig("bfgs")

    def test_rejects_bad_reset_period(self):
        with pytest.raises(ValueError):
            SolverConfig("stoch_cg", reset_period=0)

    @pytest.mark.parametrize("kind", ["stoch_cg", "det_cg"])
    def test_rejects_reset_every_iteration(self, kind):
        # a CG run reset at every iteration walks gradient descent's iterates
        with pytest.raises(ValueError, match="reset_period must be >= 2, got 1"):
            SolverConfig(kind, reset_period=1)

    @pytest.mark.parametrize("kwargs,match", [
        ({"step_mode": "armijo"}, "step mode"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"estimator": "half"}, "estimator"),
        ({"seed": -3}, "seed must be >= 0"),
        ({"decay_a": 0.5}, "neither stoch_gd nor step_mode 'optimal_line_search' reads decay_a"),
        ({"reset_period": 2},
         "neither stoch_gd nor step_mode 'optimal_line_search' reads reset_period"),
        ({"kind": "det_gd", "reset_period": 2},
         "neither det_gd nor step_mode 'optimal_line_search' reads reset_period"),
        ({"kind": "norm_optimal", "estimator": "single"},
         "neither norm_optimal nor step_mode 'optimal_line_search' reads estimator"),
        ({"kind": "norm_optimal", "step_mode": "decaying", "decay_a": 0.1},
         "neither norm_optimal nor step_mode 'decaying' reads step_mode"),
        ({"kind": "norm_optimal", "reset_period": 3},
         "neither norm_optimal nor step_mode 'optimal_line_search' reads reset_period"),
        ({"label": 5}, "label must be a string, got 5"),
        ({"estimator": "full"},
         "neither stoch_gd nor step_mode 'optimal_line_search' reads estimator"),
        ({"kind": "det_gd", "estimator": "single", "step_mode": "decaying"},
         "neither det_gd nor step_mode 'decaying' reads estimator"),
    ], ids=["step_mode", "max_iterations", "estimator", "negative_seed",
            "decay_a_under_line_search", "stoch_gd_reset_period", "det_gd_reset_period",
            "norm_optimal_estimator", "norm_optimal_step_mode", "norm_optimal_reset_period",
            "label_int", "stoch_gd_estimator", "det_gd_estimator"])
    def test_rejects_bad_field(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**{"kind": "stoch_gd", **kwargs})

    @pytest.mark.parametrize("kind", ["stoch_cg", "det_cg", "stoch_gd", "det_gd", "norm_optimal"])
    def test_every_kind_accepts_the_shared_fields(self, kind):
        config = SolverConfig(kind, max_iterations=3, seed=1, label="run")
        assert (config.max_iterations, config.seed, config.label) == (3, 1, "run")

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            SolverConfig("stoch_gd", step_mode="decaying", decay_a=-1.0)
        with pytest.raises(ValueError):
            SolverConfig("stoch_gd", step_mode="decaying", decay_gamma=0.4)
        for decay_a in (math.inf, math.nan):
            with pytest.raises(ValueError, match="decay_a must be finite and > 0"):
                SolverConfig("stoch_gd", step_mode="decaying", decay_a=decay_a)

    @pytest.mark.parametrize("kind", ["stoch_cg", "det_cg"])
    def test_rejects_cg_without_line_search(self, kind):
        for decay_a in (None, 0.1):
            with pytest.raises(ValueError, match=f"neither {kind} nor step_mode 'decaying' "
                                                 "reads step_mode"):
                SolverConfig(kind, step_mode="decaying", decay_a=decay_a)

    def test_accepted_settings_are_exactly_these(self):
        """Accepting a new setting, or a new knob, means editing this list."""
        grid = itertools.product(("stoch_cg", "det_cg", "stoch_gd", "det_gd", "norm_optimal"),
                                 (None, 1, 2), ("optimal_line_search", "decaying"),
                                 (None, 0.1), (1.0, 0.8), (None, "single", "full"))
        accepted = set()
        for kind, reset_period, step_mode, decay_a, decay_gamma, estimator in grid:
            try:
                SolverConfig(kind, reset_period=reset_period, step_mode=step_mode,
                             decay_a=decay_a, decay_gamma=decay_gamma, estimator=estimator)
            except ValueError:
                continue
            accepted.add((kind, reset_period, step_mode, decay_a, decay_gamma, estimator))
        line_search = ("optimal_line_search", None, 1.0)
        assert accepted == {
            ("stoch_cg", None, *line_search, None),
            ("stoch_cg", None, *line_search, "single"),
            ("stoch_cg", None, *line_search, "full"),
            ("stoch_cg", 2, *line_search, None),
            ("stoch_cg", 2, *line_search, "single"),
            ("stoch_cg", 2, *line_search, "full"),
            ("det_cg", None, *line_search, None),
            ("det_cg", None, *line_search, "single"),
            ("det_cg", None, *line_search, "full"),
            ("det_cg", 2, *line_search, None),
            ("det_cg", 2, *line_search, "single"),
            ("det_cg", 2, *line_search, "full"),
            ("stoch_gd", None, *line_search, None),
            ("stoch_gd", None, "decaying", None, 1.0, None),
            ("stoch_gd", None, "decaying", None, 0.8, None),
            ("stoch_gd", None, "decaying", 0.1, 1.0, None),
            ("stoch_gd", None, "decaying", 0.1, 0.8, None),
            ("det_gd", None, *line_search, None),
            ("det_gd", None, "decaying", None, 1.0, None),
            ("det_gd", None, "decaying", None, 0.8, None),
            ("det_gd", None, "decaying", 0.1, 1.0, None),
            ("det_gd", None, "decaying", 0.1, 0.8, None),
            ("norm_optimal", None, *line_search, None),
        }
        assert SolverConfig.__dataclass_fields__.keys() == {
            "kind", "max_iterations", "reset_period", "step_mode", "decay_a", "decay_gamma",
            "seed", "estimator", "label"}

    def test_kind_mismatch_guards(self):
        _, J = small_system(seed=1)
        with pytest.raises(ValueError):
            run_solver(fresh_oracle(J), SolverConfig("norm_optimal"))


class TestDegenerateCases:
    @pytest.mark.parametrize("cfg,experiments", [
        (SolverConfig("stoch_cg", max_iterations=5, seed=0), 2),
        (SolverConfig("det_cg", max_iterations=5), 5),
        (SolverConfig("stoch_gd", max_iterations=50, step_mode="decaying", decay_a=0.1), 2),
        (SolverConfig("det_gd", max_iterations=50, step_mode="decaying", decay_a=0.1), 5),
    ], ids=["stoch_cg", "det_cg", "stoch_gd_fixed_decay", "det_gd_fixed_decay"])
    def test_zero_plant_terminates_cleanly(self, cfg, experiments):
        oracle = fresh_oracle(LiftedSystem(np.zeros((4, 2, 2))))
        trace = run_solver(oracle, cfg)
        assert trace.stop_reason == "degenerate_direction"
        assert len(trace.records) == 1
        assert trace.records[-1].epsilon is None
        assert oracle.snapshot_count() == experiments

    @pytest.mark.parametrize("kind", ["stoch_cg", "det_cg", "stoch_gd", "det_gd"])
    def test_a_zero_direction_spends_no_probe(self, kind):
        oracle = fresh_oracle(LiftedSystem(np.zeros((4, 2, 2))))
        probed = []
        probe = oracle.probe
        oracle.probe = lambda u: probed.append(u) or probe(u)
        trace = run_solver(oracle, SolverConfig(kind, max_iterations=5))
        assert trace.stop_reason == "degenerate_direction"
        assert all(u.any() for u in probed)  # the stochastic gradient's probe only

    @pytest.mark.parametrize("kind", ["det_cg", "det_gd"])
    def test_a_direction_whose_square_underflows_is_degenerate(self, kind):
        # g = J^T e is about 1e-170, so ||g||^2 underflows to 0 while ||J g||^2 does not
        J = LiftedSystem(np.array([[[1e20], [1e-190]]]))
        oracle = PlantOracle(J, Signal([1e-190, 1.0], "output", 1, 2), NoiseModel())
        trace = run_solver(oracle, SolverConfig(kind, max_iterations=6))
        assert trace.stop_reason == "degenerate_direction"
        assert len(trace.records) == 1

    def test_zero_disturbance_stops_at_first_iteration(self):
        _, J = small_system(seed=1)
        trace = run_solver(fresh_oracle(J, amplitude=0.0),
                           SolverConfig("stoch_cg", max_iterations=5, seed=0))
        assert len(trace.records) == 1
        assert trace.stop_reason == "cost_tol"

    def test_a_mask_that_zeroes_the_probe_input_is_drawn_again(self):
        # a unit step leaves equal error channels, and the first mask of this
        # seed has rows that sum to zero: A T e = 0 would end the run at J0
        cfg = SolverConfig("stoch_gd", max_iterations=3, seed=combine(0, 0))
        assert not next(mask_stream(stream(cfg.seed, MASK_STREAM), 2, 2)).sum(axis=1).any()
        J = lift(generate_system(3, 2, 2, 1), 6)
        oracle = fresh_oracle(J)
        trace = run_solver(oracle, cfg)
        assert len(trace.records) == 3
        assert trace.stop_reason == "max_iterations"
        assert oracle.snapshot_count() == 9
        assert trace.records[-1].cost_true < trace.records[0].cost_true

    def test_stoch_cg_steps_along_the_gradient_when_its_direction_is_degenerate(self):
        # a sweep plant on which the second masked gradient is parallel to the
        # first direction, so the conjugated p is zero and spends no probe
        J = lift(generate_system(0, 2, 2, seed=1866081361,
                                 feedthrough_gain=0.035753591807763385), 9)
        oracle = fresh_oracle(J)
        trace = run_solver(oracle, SolverConfig("stoch_cg", max_iterations=80, seed=789126906),
                           budget=400)
        second = trace.records[1]
        assert second.epsilon is not None and second.tau is None and second.reset
        assert trace.stop_reason == "cost_tol"
        assert [r.experiments_cum for r in trace.records] == [1, 4, 7, 11]
        assert oracle.snapshot_count() == 11

    @pytest.mark.parametrize("kind,budget,experiments", [("stoch_gd", None, 5),
                                                         ("det_gd", 200, 11)])
    def test_a_diverging_run_stops_at_its_first_non_finite_cost(self, kind, budget,
                                                                  experiments):
        # a decaying step of 1e120 overflows the input, and the third trial's cost is inf
        oracle = fresh_oracle(lift(generate_system(3, 2, 2, 1), 6))
        cfg = SolverConfig(kind, max_iterations=60, step_mode="decaying", decay_a=1e120, seed=1)
        trace = run_solver(oracle, cfg, budget=budget)
        assert trace.stop_reason == "non_finite"
        assert len(trace.records) == 3
        last = trace.records[-1]
        assert last.cost_true == last.cost_measured == np.inf
        assert (last.epsilon, last.tau, last.reset) == (None, None, False)
        assert last.experiments_cum == oracle.snapshot_count() == experiments


PLAN_GRID = [
    SolverConfig(kind, max_iterations=6, step_mode=step_mode, decay_a=decay_a,
                 reset_period=reset_period, estimator=estimator, seed=2)
    for kind in ("stoch_cg", "det_cg", "stoch_gd", "det_gd")
    for step_mode, decay_a in (("optimal_line_search", None), ("decaying", 0.05),
                               ("decaying", None))
    for reset_period in ((None, 2) if kind.endswith("cg") else (None,))
    for estimator in ((None, "single", "full") if kind.endswith("cg") else (None,))
    if not kind.endswith("cg") or step_mode == "optimal_line_search"
]


class TestPlanEqualsExecution:
    """The budget check plans exactly the experiments each iteration spends."""

    @pytest.mark.parametrize("cfg", PLAN_GRID, ids=lambda c: (
        f"{c.kind}-{c.step_mode}-a{c.decay_a}-r{c.reset_period}-{c.estimator}"))
    def test_budget_cuts_run_at_every_iteration(self, cfg):
        _, J = small_system(seed=1, n_x=3, n_i=2, n_o=3, N=4)
        full = run_solver(fresh_oracle(J), cfg)
        exps = [r.experiments_cum for r in full.records]
        for k in range(1, len(exps)):
            # just enough for k iterations: stop there, having spent all of it
            oracle = fresh_oracle(J)
            cut = run_solver(oracle, cfg, budget=exps[k] - 1)
            assert cut.records == full.records[:k]
            assert cut.stop_reason == "budget"
            assert oracle.snapshot_count() == exps[k] - 1
            # one short: iteration k must not start
            oracle = fresh_oracle(J)
            if k == 1:
                with pytest.raises(ValueError, match="first iteration"):
                    run_solver(oracle, cfg, budget=exps[1] - 2)
                continue
            short = run_solver(oracle, cfg, budget=exps[k] - 2)
            assert short.records == full.records[:k - 1]
            assert oracle.snapshot_count() == exps[k - 1] - 1


class TestBudgetTooSmall:
    @pytest.mark.parametrize("kind,first", [("stoch_cg", 3), ("det_cg", 6), ("stoch_gd", 3)])
    def test_iterative_solvers_raise(self, kind, first):
        _, J = small_system(seed=1)
        oracle = fresh_oracle(J)
        with pytest.raises(ValueError, match=f"budget 2 cannot pay for the {first} experiments"):
            run_solver(oracle, SolverConfig(kind), budget=2)
        assert oracle.snapshot_count() == 0

    def test_norm_optimal_raises(self):
        _, J = small_system(seed=1)
        oracle = fresh_oracle(J)
        with pytest.raises(ValueError, match="budget 1 cannot pay for the 2 experiments"):
            run_solver(oracle, SolverConfig("norm_optimal"), budget=1, system=J)
        assert oracle.snapshot_count() == 0
        assert len(run_solver(fresh_oracle(J), SolverConfig("norm_optimal"), budget=2,
                              system=J).records) == 2


class _CountingOracle(PlantOracle):
    """Oracle that counts the experiments it sees through its public methods."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = 0
        self.calls = {"run_trial": 0, "probe": 0, "probe_selectors": 0, "true_cost": 0}

    def run_trial(self, f):
        self.seen += 1
        self.calls["run_trial"] += 1
        return super().run_trial(f)

    def probe(self, u):
        self.seen += 1
        self.calls["probe"] += 1
        return super().probe(u)

    def probe_selectors(self, te):
        self.seen += self.n_i * self.n_o
        self.calls["probe_selectors"] += 1
        return super().probe_selectors(te)

    def true_cost(self, f):
        self.calls["true_cost"] += 1
        return super().true_cost(f)


class TestOracleContract:
    """Every experiment goes through the oracle's public methods, one trial per record.

    The trial returns the noise-free cost, so the solver makes no ``true_cost`` call.
    """

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("budget", [None, 23])
    @pytest.mark.parametrize("kind,estimator", [
        *[(kind, estimator) for kind in ("stoch_cg", "det_cg") for estimator in ("single", "full")],
        ("stoch_gd", None), ("det_gd", None), ("norm_optimal", None)])
    def test_experiments_seen_equal_the_count(self, kind, estimator, budget, noisy):
        _, J = small_system(seed=1, n_x=3, n_i=2, n_o=3, N=5)
        noise = NoiseModel("gaussian", 0.05, seed=4) if noisy else NoiseModel()
        oracle = _CountingOracle(J, make_step_disturbance(J.N, J.n_o, 1.0), noise)
        reset_period = 3 if kind.endswith("cg") else None
        trace = run_solver(oracle, SolverConfig(kind, max_iterations=8, reset_period=reset_period,
                                                estimator=estimator, seed=5),
                           budget=budget, system=J)
        assert oracle.seen == oracle.snapshot_count() > 0
        assert oracle.calls["run_trial"] == len(trace.records)
        assert oracle.calls["true_cost"] == 0
        if kind == "norm_optimal":
            assert oracle.calls["run_trial"] == 2
        single = (estimator or ("full" if kind.startswith("det") else "single")) == "single"
        assert (oracle.calls["probe_selectors"] > 0) != single
        assert isinstance(trace.final_input, Signal)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("kind", ["stoch_cg", "det_cg", "stoch_gd", "det_gd"])
    def test_the_loop_builds_one_signal(self, monkeypatch, kind, noisy):
        """Experiments pass plain arrays; the one Signal of a run is its final input."""
        _, J = small_system(seed=1, n_x=3, n_i=2, n_o=3, N=5)
        noise = NoiseModel("gaussian", 0.05, seed=4) if noisy else NoiseModel()
        oracle = PlantOracle(J, make_step_disturbance(J.N, J.n_o, 1.0), noise)
        built = []
        init = Signal.__init__
        monkeypatch.setattr(Signal, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        reset_period = 3 if kind.endswith("cg") else None
        trace = run_solver(oracle, SolverConfig(kind, max_iterations=8, reset_period=reset_period,
                                                seed=5))
        assert len(trace.records) > 3
        assert len(built) == 1
