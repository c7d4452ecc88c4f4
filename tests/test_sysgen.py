import numpy as np
import pytest

from cgilc import (
    NoiseModel,
    PlantOracle,
    SolverConfig,
    generate_system,
    lift,
    make_step_disturbance,
    run_solver,
)


class TestGenerateSystem:
    def test_static_when_no_states(self):
        ss = generate_system(0, 2, 3, seed=5)
        assert ss.n_x == 0
        J = lift(ss, N=4)
        assert np.allclose(J.matrix, np.kron(ss.D, np.eye(4)), rtol=0, atol=0)

    def test_same_seed_same_system(self):
        a = generate_system(6, 2, 2, seed=33)
        b = generate_system(6, 2, 2, seed=33)
        for x, y in ((a.A, b.A), (a.B, b.B), (a.C, b.C), (a.D, b.D)):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self):
        a = generate_system(6, 2, 2, seed=1)
        b = generate_system(6, 2, 2, seed=2)
        assert not np.array_equal(a.A, b.A)

    def test_benchmark_shape(self):
        ss = generate_system(84, 21, 21, seed=0)
        assert (ss.n_x, ss.n_i, ss.n_o) == (84, 21, 21)

    def test_eigenvalues_within_cap(self):
        for seed in range(5):
            for n_x in (1, 2, 5, 8):
                ss = generate_system(n_x, 1, 1, seed=seed)
                assert np.max(np.abs(np.linalg.eigvals(ss.A))) <= 0.95 + 1e-12

    def test_feedthrough_gain_shifts_d(self):
        base = generate_system(4, 3, 3, seed=7)
        shifted = generate_system(4, 3, 3, seed=7, feedthrough_gain=10.0)
        assert np.allclose(shifted.D, base.D + 10.0 * np.eye(3), rtol=0, atol=0)
        assert np.array_equal(shifted.A, base.A)

    def test_rejects_negative_states(self):
        with pytest.raises(ValueError):
            generate_system(-1, 1, 1, seed=0)


class TestStepDisturbance:
    def test_unit_step_layout(self):
        r = make_step_disturbance(N=3, n_o=2, amplitude=1.0)
        assert r.data.tolist() == [1.0] * 6
        assert (r.space, r.N, r.channels) == ("output", 3, 2)

    def test_amplitude_scales_linearly(self):
        one = make_step_disturbance(4, 2, 1.0)
        two = make_step_disturbance(4, 2, 2.0)
        assert np.array_equal(two.data, 2.0 * one.data)

    def test_zero_amplitude_terminates_solvers_immediately(self):
        ss = generate_system(3, 2, 2, seed=1)
        J = lift(ss, N=5)
        oracle = PlantOracle(J, make_step_disturbance(5, 2, 0.0), NoiseModel())
        trace = run_solver(oracle, SolverConfig("stoch_cg", max_iterations=10))
        assert len(trace.records) == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_step_disturbance(3, 1, float("nan"))
