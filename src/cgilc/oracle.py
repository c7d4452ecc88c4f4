"""Experiment-counted interface to the (notionally unknown) plant.

Solvers never touch the lifted matrix directly: every evaluation of the
plant goes through :class:`PlantOracle`, which counts it as one experiment
and optionally corrupts the measured output with Gaussian noise.  This is
the simulation stand-in for running a physical trial; the plant is applied
through :meth:`LiftedSystem.product`.  The deterministic gradient reads only
the per-input sums of its selector experiments, so those are simulated as one
:meth:`LiftedSystem.adjoint` apply, with noise drawn for the sums alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lifted import LiftedSystem, Signal, check_integer, check_real
from .rng import NOISE_STREAM, stream


@dataclass(frozen=True)
class NoiseModel:
    """Additive i.i.d. zero-mean Gaussian noise on every measured output."""

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0 <= check_real("sigma", self.sigma) < math.inf:  # also false for NaN
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.kind == "none" and self.sigma > 0:
            raise ValueError(f"noise kind 'none' takes no sigma, got {self.sigma!r}")
        check_integer("seed", self.seed, 0)

    @property
    def active(self) -> bool:
        return self.sigma > 0.0


class PlantOracle:
    """Counted, optionally noisy access to y = J u and e = r - J f.

    Experiments take and return channel-major arrays: inputs (n_i, N),
    outputs (n_o, N); another input shape raises ValueError before it is
    counted.  Only the disturbance and :meth:`true_cost`'s input are
    :class:`Signal` objects.  Each returned sample that sums k readings
    carries one N(0, k sigma^2) draw from the noise stream, taken in call
    order for exactly the samples a call returns; every sample but those of
    :meth:`probe_selectors` is one reading.  ``N``, ``n_i`` and ``n_o`` are
    the plant's trial length and channel counts.  Single-owner mutable state
    (experiment counter and noise stream); do not share one oracle between
    concurrent solver runs.
    """

    def __init__(self, system: LiftedSystem, disturbance: Signal,
                 noise: NoiseModel = NoiseModel()):
        self.N, self.n_i, self.n_o = system.N, system.n_i, system.n_o
        if (disturbance.space, disturbance.N, disturbance.channels) != (
                "output", self.N, self.n_o):
            raise ValueError("disturbance must be an output-space signal of the system")
        self._system = system
        self._r = disturbance.data.reshape(self.n_o, self.N)
        self._sigma = noise.sigma
        self._rng = stream(noise.seed, NOISE_STREAM)
        self._count = 0

    def snapshot_count(self) -> int:
        """Current experiment count; no side effects."""
        return self._count

    def _measure(self, data: np.ndarray, readings: int = 1) -> np.ndarray:
        """data plus the noise of samples that each sum ``readings`` readings."""
        if not self._sigma:
            return data
        z = self._rng.standard_normal(data.shape)
        z *= self._sigma * math.sqrt(readings)  # sigma itself for one reading
        z += data  # data + scale * z bit for bit: IEEE addition commutes
        return z

    @staticmethod
    def _checked(x, shape: tuple[int, int], what: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != shape:
            raise ValueError(f"{what} must have shape {shape}, got {x.shape}")
        return x

    def run_trial(self, f: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Apply input f for one trial; measure e = r - (J f + noise).  One experiment.

        Returns e, its squared norm (the measured cost) and the noise-free cost
        ||r - J f||^2 of the same product: simulation bookkeeping that counts
        no experiment, and the measured cost bit for bit when noise-free.
        """
        f = self._checked(f, (self.n_i, self.N), "trial input")
        self._count += 1
        Jf = self._system.product(f)
        e = self._r - self._measure(Jf)
        cost = float(np.vdot(e, e))
        if not self._sigma:
            return e, cost, cost
        d = self._r - Jf  # the noise-free error
        return e, cost, float(np.vdot(d, d))

    def probe(self, u: np.ndarray) -> np.ndarray:
        """Dedicated experiment measuring J u + noise, without the disturbance."""
        u = self._checked(u, (self.n_i, self.N), "probe input")
        self._count += 1
        return self._measure(self._system.product(u))

    def probe_selectors(self, te: np.ndarray) -> np.ndarray:
        """The n_i*n_o selector experiments of the deterministic gradient, summed per input.

        Experiment (l, m) applies ``te[m]`` (``te`` has shape (n_o, N)) on
        input channel l alone, and only its output channel m is read.  Row l
        of the result, shape (n_i, N), is the sum over m of those readings,
        ``T J^T T te`` with T the per-channel time reversal: one adjoint
        apply.  Counts n_i*n_o experiments.  Each returned sample sums n_o
        readings of independent N(0, sigma^2) noise, so it carries one
        N(0, n_o sigma^2) draw: n_i*N normals per noisy call.
        """
        te = self._checked(te, (self.n_o, self.N), "selector signals")
        self._count += self.n_i * self.n_o
        return self._measure(self._system.adjoint(te[:, ::-1])[:, ::-1], self.n_o)

    def true_cost(self, f: Signal) -> float:
        """Noise-free cost ||r - J f||^2; analysis bookkeeping, not an experiment."""
        if (f.space, f.N, f.channels) != ("input", self.N, self.n_i):
            raise ValueError("signal is not an input of this plant")
        e = self._r - self._system.product(f.data.reshape(self.n_i, self.N))
        return float(np.vdot(e, e))
