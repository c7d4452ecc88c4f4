"""Random stable benchmark systems and disturbances."""

from __future__ import annotations

import numpy as np

from .lifted import Signal, StateSpace, check_integer, check_real
from .rng import SYSTEM_STREAM, stream

EIGENVALUE_CAP = 0.95


def generate_system(n_x: int, n_i: int, n_o: int, seed: int,
                    feedthrough_gain: float = 0.0) -> StateSpace:
    """Random stable discrete state-space model, deterministic in ``seed``.

    Eigenvalues of A are drawn as conjugate pairs with modulus uniform on
    [0, 0.95] and uniform angles, then hidden behind a random orthogonal
    similarity; B, C, D have i.i.d. standard normal entries.

    ``feedthrough_gain`` adds gain * I to D.  Random square MIMO systems are
    almost surely non-minimum-phase, which makes the lifted operator nearly
    singular over long trials; a dominant feedthrough pulls the transmission
    zeros inside the unit circle so that iterative solvers can actually reach
    deep cost levels.  The default 0 leaves the raw random system untouched.
    """
    for name, value, minimum in (("n_x", n_x, 0), ("n_i", n_i, 1), ("n_o", n_o, 1),
                                 ("seed", seed, 0)):
        check_integer(name, value, minimum)
    if not np.isfinite(check_real("feedthrough_gain", feedthrough_gain)):
        raise ValueError("feedthrough_gain must be finite")
    rng = stream(seed, SYSTEM_STREAM)
    if n_x:
        diag = np.zeros((n_x, n_x))
        i = 0
        for _ in range(n_x // 2):
            rho = rng.uniform(0.0, EIGENVALUE_CAP)
            theta = rng.uniform(0.0, np.pi)
            c, s = np.cos(theta), np.sin(theta)
            diag[i:i + 2, i:i + 2] = rho * np.array([[c, s], [-s, c]])
            i += 2
        if n_x % 2:
            rho = rng.uniform(0.0, EIGENVALUE_CAP)
            diag[i, i] = rho if rng.uniform() < 0.5 else -rho
        M = rng.standard_normal((n_x, n_x))
        Q, R = np.linalg.qr(M)
        Q = Q * np.sign(np.diag(R))  # fix the QR sign ambiguity
        A = Q.T @ diag @ Q
    else:
        A = np.zeros((0, 0))
    B = rng.standard_normal((n_x, n_i))
    C = rng.standard_normal((n_o, n_x))
    D = rng.standard_normal((n_o, n_i))
    if feedthrough_gain:
        D = D + feedthrough_gain * np.eye(n_o, n_i)
    return StateSpace(A=A, B=B, C=C, D=D)


def make_step_disturbance(N: int, n_o: int, amplitude: float = 1.0) -> Signal:
    """Step of the given amplitude on every output channel, every sample."""
    if not np.isfinite(check_real("amplitude", amplitude)):
        raise ValueError("amplitude must be finite")
    for name, value in (("N", N), ("n_o", n_o)):  # before np.full reads them as a size
        check_integer(name, value, 1)
    return Signal(np.full(N * n_o, float(amplitude)), "output", N, n_o)
