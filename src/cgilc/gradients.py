"""Gradient estimates of the quadratic trial cost from plant experiments.

The cost gradient is -2 J^T e.  Since only forward experiments on J are
available, J^T is realized through time reversals: exactly for SISO plants,
and in expectation for MIMO plants by mixing channels with a random +-1
matrix.  The deterministic alternative isolates each channel pair with a
selector matrix, at the price of one experiment per pair.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .oracle import PlantOracle


def mask_stream(rng: np.random.Generator, n_i: int, n_o: int) -> Iterator[np.ndarray]:
    """The i.i.d. +-1 masks of shape (n_i, n_o) that a run draws from ``rng``, in order.

    One ``integers`` call draws max(1, 512 // (n_i*n_o)) masks, the same bits as
    one call per mask.  The stream owns ``rng``: it draws ahead, so nothing else may.
    """
    size = (max(1, 512 // (n_i * n_o)), n_i, n_o)
    while True:
        yield from rng.integers(0, 2, size=size) * 2.0 - 1.0


def stochastic_gradient(oracle: PlantOracle, e: np.ndarray,
                        masks: Iterator[np.ndarray]) -> np.ndarray:
    """Single-experiment gradient estimate -2 T A (J A T e) of the measured error e.

    T reverses the samples of each channel and A mixes channels sample-wise by
    a +-1 mask a (``a kron I_N``), the next of ``masks``; the mean over all
    masks is the gradient -2 J^T e.  A mask that makes A T e exactly zero while
    e is not (a step disturbance leaves equal error channels) is replaced by
    the next before the probe is spent.  Noise-free, such a mask would estimate
    zero, so this conditions the estimate's mean to a positive multiple of the
    gradient; the line search removes the scale.  Uses exactly one probe
    experiment.  ``e`` has shape (n_o, N), a mask (n_i, n_o), the estimate (n_i, N).
    """
    te = e[:, ::-1]
    a = next(masks)
    u = a.dot(te)  # A T e, the probe's input
    while not u.any() and te.any():
        a = next(masks)
        u = a.dot(te)
    w = oracle.probe(u)
    return -2.0 * a.dot(w)[:, ::-1]


def deterministic_gradient(oracle: PlantOracle, e: np.ndarray) -> np.ndarray:
    """Full gradient of the measured error e from n_i*n_o selector experiments.

    Channel pair (l, m) is isolated by a selector that routes time-reversed
    error channel m into input channel l and reads output channel m; those
    readings summed over m (:meth:`PlantOracle.probe_selectors`), reversed,
    reconstruct -2 J^T e exactly when measurements are noise-free.  ``e`` has
    shape (n_o, N) and the gradient shape (n_i, N).
    """
    return -2.0 * oracle.probe_selectors(e[:, ::-1])[:, ::-1]
