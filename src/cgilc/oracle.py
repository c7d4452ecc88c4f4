"""Experiment-counted interface to the (notionally unknown) plant.

Solvers never touch the lifted matrix directly: every evaluation of the
plant goes through :class:`PlantOracle`, which counts it as one experiment
and optionally corrupts the measured output with Gaussian noise.  This is
the simulation stand-in for running a physical trial; the plant is applied
through :meth:`LiftedSystem.product`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lifted import LiftedSystem, Signal
from .rng import NOISE_STREAM, stream

# Rows of a batch's noise drawn at a time.  Successive draws continue one
# stream, so the values equal a single (probes x samples) draw; small draws
# keep the allocator from mapping and faulting in a fresh block per batch.
NOISE_BATCH_ROWS = 64


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
        self._last_trial: tuple[Signal | None, np.ndarray | None] = (None, None)

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
        Jf = self._system.product(f.data)
        self._last_trial = (f, Jf)
        e = Signal(self._r.data - self._measure(Jf), "output", self.N, self.n_o)
        return e, e.norm_sq()

    def probe(self, u: Signal) -> Signal:
        """Dedicated experiment measuring J u + noise, without the disturbance."""
        self._check_input(u)
        self._count += 1
        return Signal(self._measure(self._system.product(u.data)), "output", self.N, self.n_o)

    def probe_many(self, inputs: list[Signal]) -> list[Signal]:
        """Run a batch of probes; counts one experiment per input.

        The batch's noise, drawn ``NOISE_BATCH_ROWS`` probes at a time, takes
        the same values from the stream as the equivalent loop of single
        probes would.
        """
        for u in inputs:
            self._check_input(u)
        self._count += len(inputs)
        W = self._system.product_rows([u.data for u in inputs])
        if self._noise.active:  # in place: W is this call's own array
            for start in range(0, len(W), NOISE_BATCH_ROWS):
                block = W[start:start + NOISE_BATCH_ROWS]
                noise = self._rng.standard_normal(block.shape)
                noise *= self._noise.sigma
                block += noise
        return [Signal(w, "output", self.N, self.n_o) for w in W]

    def true_cost(self, f: Signal) -> float:
        """Noise-free cost ||r - J f||^2; analysis bookkeeping, not an experiment.

        Reuses the J f of the last trial when ``f`` is that trial's input.
        """
        self._check_input(f)
        last_f, Jf = self._last_trial
        if f is not last_f:
            Jf = self._system.product(f.data)
        e = self._r.data - Jf
        return float(e @ e)
