"""Gradient estimates of the quadratic trial cost from plant experiments.

The cost gradient is -2 J^T e.  Since only forward experiments on J are
available, J^T is realized through time reversals: exactly for SISO plants,
and in expectation for MIMO plants by mixing channels with a random +-1
matrix.  The deterministic alternative isolates each channel pair with a
selector matrix, at the price of one experiment per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lifted import Signal, TimeReversal
from .oracle import PlantOracle


@dataclass(frozen=True)
class BernoulliMask:
    """Channel-mixing matrix with i.i.d. +-1 entries, P(+1) = 1/2."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise ValueError("mask must be a 2-D matrix")
        if not np.isin(a, (-1.0, 1.0)).all():
            raise ValueError("mask entries must be +-1")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)


def draw_mask(rng: np.random.Generator, n_i: int, n_o: int) -> BernoulliMask:
    """Fresh i.i.d. +-1 mask of shape (n_i, n_o)."""
    return BernoulliMask(rng.integers(0, 2, size=(n_i, n_o)) * 2.0 - 1.0)


@dataclass(frozen=True)
class ChannelMixer:
    """Linear map (a kron I_N): mixes channels sample-wise, no time mixing."""

    a: np.ndarray
    N: int

    def __call__(self, data: np.ndarray) -> np.ndarray:
        cols = self.a.shape[1]
        return (self.a @ np.asarray(data, dtype=float).reshape(cols, self.N)).reshape(-1)

    def matrix(self) -> np.ndarray:
        """Dense Kronecker expansion, for tests."""
        return np.kron(self.a, np.eye(self.N))


@dataclass(frozen=True)
class GradientEstimate:
    g_hat: Signal
    experiments_used: int


def stochastic_gradient(oracle: PlantOracle, e: Signal,
                        rng: np.random.Generator | None = None,
                        mask: BernoulliMask | None = None) -> GradientEstimate:
    """Unbiased single-experiment gradient estimate -2 T A (J A T e).

    A fresh mask is drawn from ``rng`` unless one is supplied explicitly
    (tests enumerate masks that way).  Uses exactly one probe experiment.
    """
    if mask is None:
        if rng is None:
            raise ValueError("either rng or mask is required")
        mask = draw_mask(rng, oracle.n_i, oracle.n_o)
    elif mask.a.shape != (oracle.n_i, oracle.n_o):
        raise ValueError("mask shape does not match the plant")
    N = oracle.N
    rev_out = TimeReversal(N, oracle.n_o)
    rev_in = TimeReversal(N, oracle.n_i)
    mix = ChannelMixer(mask.a, N)
    u = Signal(mix(rev_out(e.data)), "input", N, oracle.n_i)
    w = oracle.probe(u)
    g = Signal(-2.0 * rev_in(mix(w.data)), "input", N, oracle.n_i)
    return GradientEstimate(g, 1)


def deterministic_gradient(oracle: PlantOracle, e: Signal) -> GradientEstimate:
    """Full gradient from n_i*n_o selector experiments, exact when noise-free.

    Channel pair (l, m) is isolated by a selector that routes time-reversed
    error channel m into input channel l; summing the probed responses
    reconstructs -2 J^T e exactly when measurements are noise-free.
    """
    N, n_i, n_o = oracle.N, oracle.n_i, oracle.n_o
    rev_out = TimeReversal(N, n_o)
    rev_in = TimeReversal(N, n_i)
    te = rev_out(e.data).reshape(n_o, N)
    probes = []
    for l in range(n_i):
        for m in range(n_o):
            u = np.zeros((n_i, N))
            u[l] = te[m]
            probes.append(Signal(u.reshape(-1), "input", N, n_i))
    responses = oracle.probe_many(probes)
    acc = np.zeros((n_i, N))
    k = 0
    for l in range(n_i):
        for m in range(n_o):
            acc[l] += responses[k].data[m * N:(m + 1) * N]
            k += 1
    g = Signal(-2.0 * rev_in(acc.reshape(-1)), "input", N, n_i)
    return GradientEstimate(g, n_i * n_o)
