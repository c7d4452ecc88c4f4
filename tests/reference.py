"""Dense ground truths for the tests: exact plant products and the linear maps
the gradient estimators apply.

The package applies time reversal and channel mixing inline, on the measured
arrays; these are the same maps written out as operators and as dense
matrices, so the tests can check the estimators and the lifted operator
against them.  :func:`every_mask` lists the masks that the stochastic
gradient can draw, so a test can average it over all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from cgilc import LiftedSystem, Signal


@dataclass(frozen=True)
class TimeReversal:
    """Per-channel sample-order reversal (block-diagonal, involutory)."""

    N: int
    channels: int

    def __call__(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float).reshape(self.channels, self.N)
        return data[:, ::-1].reshape(-1)

    def matrix(self) -> np.ndarray:
        """Dense permutation matrix."""
        flip = np.eye(self.N)[::-1]
        M = np.zeros((self.N * self.channels,) * 2)
        for c in range(self.channels):
            M[c * self.N:(c + 1) * self.N, c * self.N:(c + 1) * self.N] = flip
        return M


@dataclass(frozen=True)
class ChannelMixer:
    """Linear map (a kron I_N): mixes channels sample-wise, no time mixing."""

    a: np.ndarray
    N: int

    def __call__(self, data: np.ndarray) -> np.ndarray:
        cols = self.a.shape[1]
        return (self.a @ np.asarray(data, dtype=float).reshape(cols, self.N)).reshape(-1)

    def matrix(self) -> np.ndarray:
        """Dense Kronecker expansion."""
        return np.kron(self.a, np.eye(self.N))


def apply(system: LiftedSystem, f: Signal) -> Signal:
    """Exact product y = J f for an input-space signal."""
    if f.space != "input" or f.N != system.N or f.channels != system.n_i:
        raise ValueError("signal is not an input of this system")
    return Signal(system.matrix @ f.data, "output", system.N, system.n_o)


def adjoint_apply(system: LiftedSystem, v: Signal) -> Signal:
    """Exact product J^T v; ground truth, not an experiment."""
    if v.space != "output" or v.N != system.N or v.channels != system.n_o:
        raise ValueError("signal is not an output of this system")
    return Signal(system.matrix.T @ v.data, "input", system.N, system.n_i)


def time_reverse(x: Signal) -> Signal:
    """Reverse sample order within each channel; channel order is kept."""
    return Signal(TimeReversal(x.N, x.channels)(x.data), x.space, x.N, x.channels)


def every_mask(n_i: int, n_o: int):
    """Each of the 2^(n_i*n_o) +-1 masks of shape (n_i, n_o)."""
    for signs in itertools.product((-1.0, 1.0), repeat=n_i * n_o):
        yield np.reshape(signs, (n_i, n_o))
