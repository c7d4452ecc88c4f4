import numpy as np
import pytest

import cgilc.lifted
from cgilc import NoiseModel, PlantOracle, Signal, make_step_disturbance
from cgilc.rng import NOISE_STREAM, stream
from conftest import rel_err, small_system
from reference import apply


def make_oracle(seed=0, noise=NoiseModel(), n_x=4, n_i=2, n_o=2, N=8, amplitude=1.0):
    ss, J = small_system(seed=seed, n_x=n_x, n_i=n_i, n_o=n_o, N=N)
    r = make_step_disturbance(N, n_o, amplitude)
    return J, PlantOracle(J, r, noise)


class TestNoiseModel:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="gaussian", sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel("gaussian", sigma)

    def test_rejects_sigma_without_noise(self):
        with pytest.raises(ValueError, match="takes no sigma"):
            NoiseModel(kind="none", sigma=0.3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="uniform")

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            NoiseModel("gaussian", 0.1, seed=-2)

    def test_none_is_inactive(self):
        assert not NoiseModel().active
        assert not NoiseModel(kind="gaussian", sigma=0.0).active
        assert NoiseModel(kind="gaussian", sigma=0.1).active


def zero_input(J):
    return np.zeros((J.n_i, J.N))


def wrong_inputs(J):
    """Arrays that are not an (n_i, N) input of J: transposed, flat, another N, output-shaped."""
    return [np.zeros((J.N, J.n_i)), np.zeros(J.n_i * J.N),
            np.zeros((J.n_i, J.N + 1)), np.zeros((J.n_o, J.N))]


class TestRunTrial:
    def test_zero_input_measures_disturbance(self):
        J, oracle = make_oracle()
        e, cost, _ = oracle.run_trial(zero_input(J))
        r = make_step_disturbance(J.N, J.n_o, 1.0).data
        assert np.array_equal(e, r.reshape(J.n_o, J.N))
        assert cost == pytest.approx(r @ r, rel=0, abs=0)

    def test_exact_minimizer_zeroes_cost(self):
        # seed 1 gives a well-conditioned J; near-singular draws cannot hit 1e-18
        J, oracle = make_oracle(seed=1)
        r = make_step_disturbance(J.N, J.n_o, 1.0)
        f_star = np.linalg.solve(J.matrix, r.data)
        _, cost, _ = oracle.run_trial(f_star.reshape(J.n_i, J.N))
        assert cost <= 1e-18 * (r.data @ r.data)

    def test_gaussian_noise_statistics(self):
        sigma = 0.1
        J, oracle = make_oracle(n_i=1, n_o=1, N=4,
                                noise=NoiseModel("gaussian", sigma, seed=3))
        f0 = zero_input(J)
        errors = np.stack([oracle.run_trial(f0)[0] for _ in range(10_000)])
        r = make_step_disturbance(J.N, J.n_o, 1.0).data.reshape(J.n_o, J.N)
        assert np.abs(errors.mean(axis=0) - r).max() < 5e-3
        var = errors.var(axis=0).mean()
        assert abs(var - sigma**2) < 0.05 * sigma**2

    def test_dimension_mismatch(self):
        J, oracle = make_oracle(n_i=3, n_o=2)
        for f in wrong_inputs(J):
            with pytest.raises(ValueError, match="shape"):
                oracle.run_trial(f)
            assert oracle.snapshot_count() == 0

    @pytest.mark.parametrize("space,dN,d_channels", [
        ("input", 0, 0), ("output", 1, 0), ("output", 0, 1)])
    def test_rejects_a_disturbance_that_does_not_fit_the_plant(self, space, dN, d_channels):
        J, _ = make_oracle()
        r = Signal(np.zeros((J.N + dN) * (J.n_o + d_channels)), space,
                   J.N + dN, J.n_o + d_channels)
        with pytest.raises(ValueError, match="disturbance"):
            PlantOracle(J, r)


class TestProbe:
    def test_zero_input(self):
        J, oracle = make_oracle()
        w = oracle.probe(zero_input(J))
        assert np.array_equal(w, np.zeros((J.n_o, J.N)))

    def test_dimension_mismatch(self):
        J, oracle = make_oracle(n_i=3, n_o=2)
        for u in wrong_inputs(J):
            with pytest.raises(ValueError, match="shape"):
                oracle.probe(u)
            assert oracle.snapshot_count() == 0

    def test_matches_apply_without_noise(self, rng):
        J, oracle = make_oracle(seed=2)
        u = Signal(rng.standard_normal(J.N * J.n_i), "input", J.N, J.n_i)
        w = oracle.probe(u.data.reshape(J.n_i, J.N))
        assert np.array_equal(w.reshape(-1), apply(J, u).data)

    def test_noise_is_unbiased(self, rng):
        J, oracle = make_oracle(n_i=1, n_o=1, N=4,
                                noise=NoiseModel("gaussian", 0.2, seed=9))
        u = Signal(rng.standard_normal(4), "input", 4, 1)
        exact = apply(J, u).data.reshape(1, 4)
        mean = np.mean([oracle.probe(u.data.reshape(1, 4)) - exact for _ in range(20_000)],
                       axis=0)
        assert np.abs(mean).max() < 0.005

    @pytest.mark.parametrize("branch", ["dense", "structured"])
    def test_probe_selectors_draw_one_noise_value_per_summed_sample(self, monkeypatch, rng,
                                                                    branch):
        if branch == "structured":
            monkeypatch.setattr(cgilc.lifted, "STRUCTURED_MIN_ENTRIES", 0)
        sigma, seed, calls = 0.3, 17, 100
        J, noisy = make_oracle(seed=4, noise=NoiseModel("gaussian", sigma, seed=seed), n_o=3)
        _, clean = make_oracle(seed=4, n_o=3)
        assert (J._spectrum is not None) == (branch == "structured")
        te = rng.standard_normal((J.n_o, J.N))
        shape = (J.n_i, J.N)
        scale = sigma * np.sqrt(J.n_o)  # each sample sums the noise of n_o readings
        # the first call reads the stream's first normals, in C order
        first = clean.probe_selectors(te) + scale * stream(seed, NOISE_STREAM).standard_normal(shape)
        assert np.array_equal(noisy.probe_selectors(te), first)
        noise = np.stack([noisy.probe_selectors(te) - clean.probe_selectors(te)
                          for _ in range(calls)])
        assert noise.shape == (calls, *shape)
        assert abs(noise.mean()) < 5 * scale / np.sqrt(noise.size)
        assert abs(noise.std() / scale - 1) < 0.05
        assert noisy.snapshot_count() == (calls + 1) * J.n_i * J.n_o
        # the stream advanced by exactly n_i*N normals per call
        skipped = stream(seed, NOISE_STREAM)
        skipped.standard_normal((calls + 1) * J.n_i * J.N)
        # the measurement of a zero input is the next noise draw
        assert np.array_equal(noisy.probe(zero_input(J)),
                              sigma * skipped.standard_normal((J.n_o, J.N)))

    def test_probe_selectors_rejects_a_wrong_shape(self):
        J, oracle = make_oracle()
        for shape in ((J.n_o, J.N + 1), (J.n_o + 1, J.N), (J.n_o * J.N,)):
            with pytest.raises(ValueError):
                oracle.probe_selectors(np.zeros(shape))
        assert oracle.snapshot_count() == 0


class TestCounting:
    def test_fresh_oracle_is_zero(self):
        _, oracle = make_oracle()
        assert oracle.snapshot_count() == 0

    def test_single_trial(self):
        J, oracle = make_oracle()
        oracle.run_trial(zero_input(J))
        assert oracle.snapshot_count() == 1

    def test_mixed_calls(self):
        J, oracle = make_oracle()
        f0 = zero_input(J)
        oracle.run_trial(f0)
        oracle.probe(f0)
        oracle.probe(f0)
        assert oracle.snapshot_count() == 3

    def test_snapshot_has_no_side_effects(self):
        _, oracle = make_oracle()
        for _ in range(3):
            assert oracle.snapshot_count() == 0

    def test_true_cost_not_counted(self):
        J, oracle = make_oracle()
        c = oracle.true_cost(Signal(np.zeros(J.N * J.n_i), "input", J.N, J.n_i))
        assert oracle.snapshot_count() == 0
        r = make_step_disturbance(J.N, J.n_o, 1.0).data
        assert c == pytest.approx(r @ r)

    @pytest.mark.parametrize("space,dN,d_channels", [
        ("output", 0, 0), ("input", 1, 0), ("input", 0, 1)])
    def test_true_cost_rejects_a_signal_that_is_not_an_input(self, space, dN, d_channels):
        J, oracle = make_oracle(n_i=2, n_o=3)
        N, channels = J.N + dN, J.n_i + d_channels
        f = Signal(np.zeros(N * channels), space, N, channels)
        with pytest.raises(ValueError, match="not an input of this plant"):
            oracle.true_cost(f)

    def test_true_cost_after_the_caller_writes_the_input_array(self, rng):
        # the signal holds its own copy, so writing the caller's array after the
        # trial cannot change the input that the trial's costs belong to
        J, oracle = make_oracle(seed=2)
        a = rng.standard_normal(J.N * J.n_i)
        f = Signal(a, "input", J.N, J.n_i)
        _, cost, cost_true = oracle.run_trial(f.data.reshape(J.n_i, J.N))
        a[:] = 3.0 * rng.standard_normal(a.size)
        _, fresh = make_oracle(seed=2)
        recomputed = fresh.true_cost(Signal(f.data, "input", J.N, J.n_i))
        assert oracle.true_cost(f) == cost_true == cost == recomputed
        assert fresh.true_cost(Signal(a, "input", J.N, J.n_i)) != cost_true
