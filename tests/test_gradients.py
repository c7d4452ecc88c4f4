import itertools

import numpy as np
import pytest

from cgilc import (
    NoiseModel,
    PlantOracle,
    Signal,
    deterministic_gradient,
    generate_system,
    lift,
    make_step_disturbance,
    stochastic_gradient,
)
from cgilc.gradients import mask_stream
from conftest import rel_err, small_system
from reference import ChannelMixer, adjoint_apply, every_mask


def oracle_for(J, amplitude=1.0, noise=NoiseModel()):
    r = make_step_disturbance(J.N, J.n_o, amplitude)
    return PlantOracle(J, r, noise)


def exact_gradient(J, e):
    """-2 J^T e of an (n_o, N) error array, as an (n_i, N) array."""
    return -2.0 * adjoint_apply(J, Signal(e, "output", J.N, J.n_o)).data.reshape(J.n_i, J.N)


class TestMaskStream:
    def test_siso_mask_values(self):
        masks = mask_stream(np.random.default_rng(0), 1, 1)
        seen = {next(masks)[0, 0] for _ in range(50)}
        assert seen == {-1.0, 1.0}

    def test_entries_have_zero_mean(self):
        masks = mask_stream(np.random.default_rng(7), 2, 3)
        draws = np.stack([next(masks) for _ in range(10_000)])
        assert np.abs(draws.mean(axis=0)).max() < 0.05

    def test_fixed_seed_reproduces_sequence(self):
        a = mask_stream(np.random.default_rng(42), 2, 2)
        b = mask_stream(np.random.default_rng(42), 2, 2)
        for ma, mb in zip(itertools.islice(a, 300), itertools.islice(b, 300)):
            assert np.array_equal(ma, mb)

    @pytest.mark.parametrize("n_i,n_o", [(1, 1), (2, 3), (3, 3), (21, 21)])
    def test_equals_one_draw_per_mask_across_blocks(self, n_i, n_o):
        # masks come max(1, 512 // (n_i*n_o)) to a draw; cross at least three block edges
        count = 3 * max(1, 512 // (n_i * n_o)) + 5
        masks = mask_stream(np.random.default_rng(123456789), n_i, n_o)
        one_by_one = np.random.default_rng(123456789)
        for mask in itertools.islice(masks, count):
            expected = one_by_one.integers(0, 2, size=(n_i, n_o)) * 2.0 - 1.0
            assert mask.shape == (n_i, n_o)
            assert np.array_equal(mask, expected)


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
        mix = ChannelMixer(next(mask_stream(rng, 3, 2)), N=4)
        v = rng.standard_normal(8)
        dense = mix.matrix() @ v
        assert np.max(np.abs(mix(v) - dense)) < 1e-15


class TestStochasticGradient:
    def test_siso_exact_for_both_signs(self, rng):
        _, J = small_system(seed=6, n_i=1, n_o=1, N=9)
        e = rng.standard_normal((1, 9))
        expected = exact_gradient(J, e)
        for mask in every_mask(1, 1):  # [[-1]] and [[+1]]
            oracle = oracle_for(J)
            est = stochastic_gradient(oracle, e, iter([mask]))
            assert rel_err(est, expected) < 1e-13
            assert oracle.snapshot_count() == 1

    def test_zero_error_gives_zero(self, rng):
        _, J = small_system(seed=3)
        e = np.zeros((J.n_o, J.N))
        est = stochastic_gradient(oracle_for(J), e, mask_stream(rng, J.n_i, J.n_o))
        assert np.array_equal(est, np.zeros((J.n_i, J.N)))

    def test_exhaustive_mean_is_unbiased_2x2(self, rng):
        _, J = small_system(seed=8, n_i=2, n_o=2, N=6)
        e = rng.standard_normal((J.n_o, J.N))
        acc = np.zeros((J.n_i, J.N))
        masks = list(every_mask(2, 2))
        assert len(masks) == 16
        for mask in masks:
            acc += stochastic_gradient(oracle_for(J), e, iter([mask]))
        assert rel_err(acc / len(masks), exact_gradient(J, e)) < 1e-12

    def test_scaling_equivariance(self, rng):
        _, J = small_system(seed=4, n_i=2, n_o=3, N=5)
        masks = itertools.repeat(rng.integers(0, 2, (2, 3)) * 2.0 - 1.0)
        e = rng.standard_normal((J.n_o, J.N))
        g1 = stochastic_gradient(oracle_for(J), e, masks)
        g2 = stochastic_gradient(oracle_for(J), 2.5 * e, masks)
        assert rel_err(g2, 2.5 * g1) < 1e-13

    def test_uses_one_experiment(self, rng):
        _, J = small_system(seed=4)
        oracle = oracle_for(J)
        e = rng.standard_normal((J.n_o, J.N))
        stochastic_gradient(oracle, e, mask_stream(rng, J.n_i, J.n_o))
        assert oracle.snapshot_count() == 1


class TestDeterministicGradient:
    def test_equals_adjoint_gradient(self, rng):
        _, J = small_system(seed=2, n_i=2, n_o=3, N=6)
        oracle = oracle_for(J)
        e = rng.standard_normal((J.n_o, J.N))
        est = deterministic_gradient(oracle, e)
        assert rel_err(est, exact_gradient(J, e)) < 1e-12
        assert oracle.snapshot_count() == 6

    def test_zero_error_gives_zero(self):
        _, J = small_system(seed=3)
        e = np.zeros((J.n_o, J.N))
        est = deterministic_gradient(oracle_for(J), e)
        assert np.array_equal(est, np.zeros((J.n_i, J.N)))

    def test_siso_coincides_with_stochastic(self, rng):
        _, J = small_system(seed=6, n_i=1, n_o=1, N=7)
        e = rng.standard_normal((1, 7))
        det_oracle, sto_oracle = oracle_for(J), oracle_for(J)
        det = deterministic_gradient(det_oracle, e)
        sto = stochastic_gradient(sto_oracle, e, iter([np.ones((1, 1))]))
        assert det_oracle.snapshot_count() == sto_oracle.snapshot_count() == 1
        assert rel_err(det, sto) < 1e-14

    def test_benchmark_channel_count_uses_441_experiments(self, rng):
        ss = generate_system(84, 21, 21, seed=0)
        J = lift(ss, N=3)  # short trial: the experiment count is what matters
        oracle = oracle_for(J)
        e = rng.standard_normal((J.n_o, J.N))
        deterministic_gradient(oracle, e)
        assert oracle.snapshot_count() == 441


class TestUnbiasednessSweep:
    def test_exhaustive_over_small_channel_grids(self, rng):
        # every layout with n_i*n_o <= 6: brute-force mean over all masks
        for n_i, n_o in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 6), (6, 1)):
            _, J = small_system(seed=10 + n_i + 10 * n_o, n_x=3, n_i=n_i, n_o=n_o, N=4)
            e = rng.standard_normal((J.n_o, J.N))
            acc = np.zeros((J.n_i, J.N))
            count = 0
            for mask in every_mask(n_i, n_o):
                acc += stochastic_gradient(oracle_for(J), e, iter([mask]))
                count += 1
            assert count == 2 ** (n_i * n_o)
            assert rel_err(acc / count, exact_gradient(J, e)) < 1e-12

    def test_monte_carlo_mean_at_benchmark_channel_count(self):
        # 21x21, 84-state plant at a short trial; 20k masks, 3-sigma bound
        ss = generate_system(84, 21, 21, seed=1)
        J = lift(ss, N=5)
        masks = mask_stream(np.random.default_rng(2024), J.n_i, J.n_o)
        e = np.random.default_rng(5).standard_normal((J.n_o, J.N))
        exact = exact_gradient(J, e)
        n_draws = 20_000
        acc = np.zeros((J.n_i, J.N))
        acc_sq = np.zeros((J.n_i, J.N))
        oracle = oracle_for(J)
        for _ in range(n_draws):
            g = stochastic_gradient(oracle, e, masks)
            acc += g
            acc_sq += g * g
        mean = acc / n_draws
        var = acc_sq / n_draws - mean**2
        se = np.sqrt(var / n_draws)
        z = np.abs(mean - exact) / np.maximum(se, 1e-300)
        # a few of the 105 components may graze 3 sigma; none should exceed 4.5
        assert np.quantile(z, 0.99) < 3.0
        assert z.max() < 4.5
