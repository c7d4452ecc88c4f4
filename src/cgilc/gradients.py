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

from .lifted import Signal
from .oracle import PlantOracle


@dataclass(frozen=True)
class BernoulliMask:
    """Channel-mixing matrix with i.i.d. +-1 entries, P(+1) = 1/2."""

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float, order="C")  # a copy: the caller's array stays writeable
        if a.ndim != 2:
            raise ValueError("mask must be a 2-D matrix")
        if not np.isin(a, (-1.0, 1.0)).all():
            raise ValueError("mask entries must be +-1")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)


def _signs(rng: np.random.Generator, n_i: int, n_o: int) -> np.ndarray:
    """I.i.d. +-1 entries of shape (n_i, n_o): the mask stream's draw."""
    return rng.integers(0, 2, size=(n_i, n_o)) * 2.0 - 1.0


def draw_mask(rng: np.random.Generator, n_i: int, n_o: int) -> BernoulliMask:
    """Fresh i.i.d. +-1 mask of shape (n_i, n_o)."""
    return BernoulliMask(_signs(rng, n_i, n_o))


def stochastic_gradient(oracle: PlantOracle, e: Signal,
                        rng: np.random.Generator | None = None,
                        mask: BernoulliMask | None = None) -> Signal:
    """Unbiased single-experiment gradient estimate -2 T A (J A T e).

    T reverses the samples of each channel and A mixes channels sample-wise
    by the +-1 mask a (``a kron I_N``).  A fresh mask is drawn from ``rng``
    unless one is supplied explicitly (tests enumerate masks that way).
    Uses exactly one probe experiment.
    """
    N, n_i, n_o = oracle.N, oracle.n_i, oracle.n_o
    if mask is not None:
        a = mask.a
        if a.shape != (n_i, n_o):
            raise ValueError("mask shape does not match the plant")
    elif rng is not None:
        a = _signs(rng, n_i, n_o)
    else:
        raise ValueError("either rng or mask is required")
    u = a.dot(e.data.reshape(n_o, N)[:, ::-1])  # A T e, the probe's input
    w = oracle.probe(Signal(u, "input", N, n_i)).data
    return Signal(-2.0 * a.dot(w.reshape(n_o, N))[:, ::-1], "input", N, n_i)


def deterministic_gradient(oracle: PlantOracle, e: Signal) -> Signal:
    """Full gradient from n_i*n_o selector experiments, exact when noise-free.

    Channel pair (l, m) is isolated by a selector that routes time-reversed
    error channel m into input channel l and reads output channel m; summing
    those readings over m (:meth:`PlantOracle.probe_selectors`) reconstructs
    -2 J^T e exactly when measurements are noise-free.
    """
    N, n_i, n_o = oracle.N, oracle.n_i, oracle.n_o
    acc = oracle.probe_selectors(e.data.reshape(n_o, N)[:, ::-1]).sum(axis=1)
    return Signal(-2.0 * acc[:, ::-1], "input", N, n_i)
