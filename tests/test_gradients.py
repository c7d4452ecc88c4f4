import itertools

import numpy as np
import pytest

from cgilc import (
    BernoulliMask,
    ChannelMixer,
    NoiseModel,
    PlantOracle,
    Signal,
    adjoint_apply,
    deterministic_gradient,
    draw_mask,
    generate_system,
    lift,
    make_step_disturbance,
    stochastic_gradient,
)
from conftest import rel_err, small_system


def oracle_for(J, amplitude=1.0, noise=NoiseModel()):
    r = make_step_disturbance(J.N, J.n_o, amplitude)
    return PlantOracle(J, r, noise)


def exact_gradient(J, e):
    return -2.0 * adjoint_apply(J, e).data


def all_masks(n_i, n_o):
    for bits in itertools.product((-1.0, 1.0), repeat=n_i * n_o):
        yield BernoulliMask(np.array(bits).reshape(n_i, n_o))


class TestMask:
    def test_siso_mask_values(self):
        rng = np.random.default_rng(0)
        seen = {draw_mask(rng, 1, 1).a[0, 0] for _ in range(50)}
        assert seen == {-1.0, 1.0}

    def test_entries_have_zero_mean(self):
        rng = np.random.default_rng(7)
        draws = np.stack([draw_mask(rng, 2, 3).a for _ in range(10_000)])
        assert np.abs(draws.mean(axis=0)).max() < 0.05

    def test_fixed_seed_reproduces_sequence(self):
        a = [draw_mask(np.random.default_rng(42), 2, 2).a for _ in range(5)]
        b = [draw_mask(np.random.default_rng(42), 2, 2).a for _ in range(5)]
        for ma, mb in zip(a, b):
            assert np.array_equal(ma, mb)

    def test_rejects_non_pm_one(self):
        with pytest.raises(ValueError):
            BernoulliMask(np.array([[0.5]]))


class TestExpandMask:
    def test_siso_identity(self, rng):
        mix = ChannelMixer(np.array([[1.0]]), N=5)
        v = rng.standard_normal(5)
        assert np.array_equal(mix(v), v)

    def test_two_output_difference(self):
        mix = ChannelMixer(np.array([[1.0, -1.0]]), N=3)
        v = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        assert mix(v).tolist() == [-9.0, -18.0, -27.0]

    def test_matches_dense_kronecker(self, rng):
        mask = draw_mask(rng, 3, 2)
        mix = ChannelMixer(mask.a, N=4)
        v = rng.standard_normal(8)
        dense = mix.matrix() @ v
        assert np.max(np.abs(mix(v) - dense)) < 1e-15


class TestStochasticGradient:
    def test_siso_exact_for_both_signs(self, rng):
        _, J = small_system(seed=6, n_i=1, n_o=1, N=9)
        e = Signal(rng.standard_normal(9), "output", 9, 1)
        expected = exact_gradient(J, e)
        for sign in (-1.0, 1.0):
            est = stochastic_gradient(oracle_for(J), e,
                                      mask=BernoulliMask(np.array([[sign]])))
            assert rel_err(est.g_hat.data, expected) < 1e-13
            assert est.experiments_used == 1

    def test_zero_error_gives_zero(self, rng):
        _, J = small_system(seed=3)
        e = Signal.zeros("output", J.N, J.n_o)
        est = stochastic_gradient(oracle_for(J), e, rng=rng)
        assert np.array_equal(est.g_hat.data, np.zeros(J.N * J.n_i))

    def test_exhaustive_mean_is_unbiased_2x2(self, rng):
        _, J = small_system(seed=8, n_i=2, n_o=2, N=6)
        e = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
        acc = np.zeros(J.N * J.n_i)
        masks = list(all_masks(2, 2))
        assert len(masks) == 16
        for mask in masks:
            acc += stochastic_gradient(oracle_for(J), e, mask=mask).g_hat.data
        assert rel_err(acc / len(masks), exact_gradient(J, e)) < 1e-12

    def test_scaling_equivariance(self, rng):
        _, J = small_system(seed=4, n_i=2, n_o=3, N=5)
        mask = draw_mask(rng, 2, 3)
        e = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
        g1 = stochastic_gradient(oracle_for(J), e, mask=mask).g_hat.data
        g2 = stochastic_gradient(oracle_for(J), 2.5 * e, mask=mask).g_hat.data
        assert rel_err(g2, 2.5 * g1) < 1e-13

    def test_uses_one_experiment(self, rng):
        _, J = small_system(seed=4)
        oracle = oracle_for(J)
        e = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
        stochastic_gradient(oracle, e, rng=rng)
        assert oracle.snapshot_count() == 1


class TestDeterministicGradient:
    def test_equals_adjoint_gradient(self, rng):
        _, J = small_system(seed=2, n_i=2, n_o=3, N=6)
        oracle = oracle_for(J)
        e = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
        est = deterministic_gradient(oracle, e)
        assert rel_err(est.g_hat.data, exact_gradient(J, e)) < 1e-12
        assert est.experiments_used == 6
        assert oracle.snapshot_count() == 6

    def test_zero_error_gives_zero(self):
        _, J = small_system(seed=3)
        e = Signal.zeros("output", J.N, J.n_o)
        est = deterministic_gradient(oracle_for(J), e)
        assert np.array_equal(est.g_hat.data, np.zeros(J.N * J.n_i))

    def test_siso_coincides_with_stochastic(self, rng):
        _, J = small_system(seed=6, n_i=1, n_o=1, N=7)
        e = Signal(rng.standard_normal(7), "output", 7, 1)
        det = deterministic_gradient(oracle_for(J), e)
        sto = stochastic_gradient(oracle_for(J), e,
                                  mask=BernoulliMask(np.array([[1.0]])))
        assert det.experiments_used == sto.experiments_used == 1
        assert rel_err(det.g_hat.data, sto.g_hat.data) < 1e-14

    def test_benchmark_channel_count_uses_441_experiments(self, rng):
        ss = generate_system(84, 21, 21, seed=0)
        J = lift(ss, N=3)  # short trial: the experiment count is what matters
        oracle = oracle_for(J)
        e = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
        est = deterministic_gradient(oracle, e)
        assert est.experiments_used == 441
        assert oracle.snapshot_count() == 441


class TestUnbiasednessSweep:
    def test_exhaustive_over_small_channel_grids(self, rng):
        # every layout with n_i*n_o <= 6: brute-force mean over all masks
        for n_i, n_o in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 6), (6, 1)):
            _, J = small_system(seed=10 + n_i + 10 * n_o, n_x=3, n_i=n_i, n_o=n_o, N=4)
            e = Signal(rng.standard_normal(J.N * J.n_o), "output", J.N, J.n_o)
            acc = np.zeros(J.N * J.n_i)
            count = 0
            for mask in all_masks(n_i, n_o):
                acc += stochastic_gradient(oracle_for(J), e, mask=mask).g_hat.data
                count += 1
            assert count == 2 ** (n_i * n_o)
            assert rel_err(acc / count, exact_gradient(J, e)) < 1e-12

    def test_monte_carlo_mean_at_benchmark_channel_count(self):
        # 21x21, 84-state plant at a short trial; 20k masks, 3-sigma bound
        ss = generate_system(84, 21, 21, seed=1)
        J = lift(ss, N=5)
        rng = np.random.default_rng(2024)
        e = Signal(np.random.default_rng(5).standard_normal(J.N * J.n_o),
                   "output", J.N, J.n_o)
        exact = exact_gradient(J, e)
        n_draws = 20_000
        acc = np.zeros(J.N * J.n_i)
        acc_sq = np.zeros(J.N * J.n_i)
        oracle = oracle_for(J)
        for _ in range(n_draws):
            g = stochastic_gradient(oracle, e, rng=rng).g_hat.data
            acc += g
            acc_sq += g * g
        mean = acc / n_draws
        var = acc_sq / n_draws - mean**2
        se = np.sqrt(var / n_draws)
        z = np.abs(mean - exact) / np.maximum(se, 1e-300)
        # a few of the 105 components may graze 3 sigma; none should exceed 4.5
        assert np.quantile(z, 0.99) < 3.0
        assert z.max() < 4.5
