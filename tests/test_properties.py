"""Property tests for the algebraic invariants."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from cgilc import (
    PlantOracle,
    Signal,
    make_step_disturbance,
    stochastic_gradient,
)
from cgilc.gradients import mask_stream
from cgilc.solvers import _optimal_step
from conftest import small_system
from reference import ChannelMixer, apply, time_reverse

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def signals(draw, space="input", max_n=6, max_ch=3):
    N = draw(st.integers(1, max_n))
    ch = draw(st.integers(1, max_ch))
    data = draw(st.lists(finite_floats, min_size=N * ch, max_size=N * ch))
    return Signal(np.array(data), space, N, ch)


@given(signals())
@settings(max_examples=50, deadline=None)
def test_time_reversal_is_involutory(s):
    assert np.array_equal(time_reverse(time_reverse(s)).data, s.data)


@given(signals())
@settings(max_examples=50, deadline=None)
def test_time_reversal_preserves_channel_multisets(s):
    rev = time_reverse(s)
    for c in range(s.channels):
        assert (sorted(s.data.reshape(s.channels, s.N)[c])
                == sorted(rev.data.reshape(rev.channels, rev.N)[c]))


@given(st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_apply_is_linear(seed, alpha, beta):
    _, J = small_system(seed=seed % 7, n_x=3, n_i=2, n_o=2, N=5)
    rng = np.random.default_rng(seed)
    f1 = Signal(rng.standard_normal(10), "input", 5, 2)
    f2 = Signal(rng.standard_normal(10), "input", 5, 2)
    lhs = apply(J, Signal(alpha * f1.data + beta * f2.data, "input", 5, 2)).data
    rhs = alpha * apply(J, f1).data + beta * apply(J, f2).data
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_optimal_step_never_increases_cost(seed):
    _, J = small_system(seed=seed % 5, n_x=3, n_i=2, n_o=2, N=5)
    rng = np.random.default_rng(seed)
    r = make_step_disturbance(5, 2, 1.0).data
    f = rng.standard_normal(10)
    p = rng.standard_normal(10)
    e = r - J.matrix @ f
    Jp = J.matrix @ p
    if Jp @ Jp == 0.0:
        return
    eps = _optimal_step(e, Jp, Jp @ Jp)
    before = float(e @ e)
    res = r - J.matrix @ (f + eps * p)
    assert float(res @ res) <= before * (1 + 1e-12) + 1e-12


@given(st.integers(0, 2**31 - 1), st.floats(-100, 100))
@settings(max_examples=25, deadline=None)
def test_masked_gradient_scales_with_error(seed, alpha):
    _, J = small_system(seed=seed % 5, n_x=3, n_i=2, n_o=2, N=5)
    rng = np.random.default_rng(seed)
    masks = itertools.repeat(rng.integers(0, 2, (2, 2)) * 2.0 - 1.0)
    e = rng.standard_normal((2, 5))
    r = make_step_disturbance(5, 2, 1.0)
    g1 = stochastic_gradient(PlantOracle(J, r), e, masks)
    g2 = stochastic_gradient(PlantOracle(J, r), alpha * e, masks)
    scale = max(np.abs(g1).max(), 1.0) * max(abs(alpha), 1.0)
    assert np.abs(g2 - alpha * g1).max() <= 1e-9 * scale


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mask_expansion_matches_dense_kronecker(n_i, n_o, N, seed):
    rng = np.random.default_rng(seed)
    mix = ChannelMixer(next(mask_stream(rng, n_i, n_o)), N)
    v = rng.standard_normal(N * n_o)
    assert np.allclose(mix(v), mix.matrix() @ v, atol=1e-12)
