"""Experiment-counted interface to the (notionally unknown) plant.

Solvers never touch the lifted matrix directly: every evaluation of the
plant goes through :class:`PlantOracle`, which counts it as one experiment
and optionally corrupts the measured output with Gaussian noise.  This is
the simulation stand-in for running a physical trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lifted import LiftedSystem, Signal
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
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @property
    def active(self) -> bool:
        return self.kind == "gaussian" and self.sigma > 0.0


class PlantOracle:
    """Counted, optionally noisy access to y = J u and e = r - J f.

    Single-owner mutable state (experiment counter plus noise stream); do
    not share one oracle between concurrent solver runs.
    """

    def __init__(self, system: LiftedSystem, disturbance: Signal,
                 noise: NoiseModel = NoiseModel()):
        if (disturbance.space, disturbance.N, disturbance.channels) != (
                "output", system.N, system.n_o):
            raise ValueError("disturbance must be an output-space signal of the system")
        self._system = system
        self._r = disturbance
        self._noise = noise
        self._rng = stream(noise.seed, NOISE_STREAM)
        self._count = 0

    @property
    def N(self) -> int:
        return self._system.N

    @property
    def n_i(self) -> int:
        return self._system.n_i

    @property
    def n_o(self) -> int:
        return self._system.n_o

    def snapshot_count(self) -> int:
        """Current experiment count; no side effects."""
        return self._count

    def _measure(self, data: np.ndarray) -> np.ndarray:
        if self._noise.active:
            return data + self._noise.sigma * self._rng.standard_normal(data.size)
        return data

    def _check_input(self, u: Signal):
        if u.space != "input" or u.N != self.N or u.channels != self.n_i:
            raise ValueError("signal is not an input of this plant")

    def run_trial(self, f: Signal) -> tuple[Signal, float]:
        """Apply input f for one trial; measure e = r - (J f + noise).

        Returns the measured error and its squared norm (the measured cost).
        Counts as one experiment.
        """
        self._check_input(f)
        self._count += 1
        y = self._measure(self._system.matrix @ f.data)
        e = Signal(self._r.data - y, "output", self.N, self.n_o)
        return e, e.norm_sq()

    def probe(self, u: Signal) -> Signal:
        """Dedicated experiment measuring J u + noise, without the disturbance."""
        self._check_input(u)
        self._count += 1
        return Signal(self._measure(self._system.matrix @ u.data), "output", self.N, self.n_o)

    def probe_many(self, inputs: list[Signal]) -> list[Signal]:
        """Run a batch of probes; counts one experiment per input.

        Noise is drawn per probe in sequence, so the stream advances exactly
        as it would for the equivalent loop of single probes.
        """
        for u in inputs:
            self._check_input(u)
        self._count += len(inputs)
        U = np.stack([u.data for u in inputs], axis=1)
        W = self._system.matrix @ U
        out = []
        for k in range(W.shape[1]):
            out.append(Signal(self._measure(W[:, k]), "output", self.N, self.n_o))
        return out

    def true_cost(self, f: Signal) -> float:
        """Noise-free cost ||r - J f||^2; analysis bookkeeping, not an experiment."""
        self._check_input(f)
        e = self._r.data - self._system.matrix @ f.data
        return float(e @ e)
