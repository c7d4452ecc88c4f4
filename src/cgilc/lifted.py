"""Lifted (trial-domain) representations of discrete-time MIMO LTI systems.

A system with ``n_i`` inputs and ``n_o`` outputs acting over a finite trial
of ``N`` samples is held as its first ``N`` Markov parameters.  As a matrix it
is made of ``n_o x n_i`` lower-triangular Toeplitz blocks, one per
input/output channel pair, acting on channel-major signals: channel ``l`` is
row ``l`` of a ``(channels, N)`` array, the slice ``[l*N, (l+1)*N)`` flat.

Large operators are applied by FFT block convolution of their Markov
parameters (Golub & Van Loan, *Matrix Computations*, section 4.7), small ones
by the dense product; see :meth:`LiftedSystem.product` and, for the transpose
J^T that also sums the deterministic gradient's selector experiments,
:meth:`LiftedSystem.adjoint`.  The dense matrix is built only when something
asks for it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


# Operators of at least this many entries are applied by FFT convolution.  One
# apply (one BLAS thread, 2-vCPU x86-64 guest) took 21 us by FFT against 5.7 us
# dense at 36,864 entries, 26 us against 46 us at 262,144, and 0.07 ms against
# 1.4 ms at 4.41M.
STRUCTURED_MIN_ENTRIES = 2 ** 18


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` if it is an integer (a bool is not) of at least ``minimum``.

    Otherwise a ValueError naming ``name``.
    """
    if type(value) is not int and (isinstance(value, bool)  # int first: it is the common case
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_real(name: str, value):
    """``value`` if it is a real number (a bool is not); otherwise a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StateSpace:
    """Discrete-time state-space model (A, B, C, D) with a stable A."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        # copies, so that the caller's arrays stay writeable and the model fixed
        A = np.atleast_2d(np.array(self.A, dtype=float))
        B = np.atleast_2d(np.array(self.B, dtype=float))
        C = np.atleast_2d(np.array(self.C, dtype=float))
        D = np.atleast_2d(np.array(self.D, dtype=float))
        n_x = A.shape[0]
        if A.shape != (n_x, n_x):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n_x and not (n_x == 0 and B.size == 0):
            raise ValueError(f"B has {B.shape[0]} rows, expected {n_x}")
        if n_x == 0:
            B = B.reshape(0, B.shape[1] if B.ndim == 2 and B.shape[1] else D.shape[1])
            C = C.reshape(D.shape[0], 0)
        if C.shape[1] != n_x:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n_x}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(f"D shape {D.shape} inconsistent with B/C ({C.shape[0]}x{B.shape[1]})")
        if not all(np.isfinite(M).all() for M in (A, B, C, D)):
            raise ValueError("state-space matrices must be finite")
        if n_x and np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
            raise ValueError("A must have spectral radius strictly below 1")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "D", _freeze(D))

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_i(self) -> int:
        return self.B.shape[1]

    @property
    def n_o(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, init=False)
class Signal:
    """Channel-major stacked signal over one trial.

    ``data`` has length ``N * channels``; ``space`` tags whether the signal
    lives on the input side ("input") or the output side ("output") of the
    plant.  Signals are immutable: ``data`` is a read-only copy of what the
    caller passed.
    """

    data: np.ndarray
    space: str
    N: int
    channels: int

    def __init__(self, data, space: str, N: int, channels: int):
        if space not in ("input", "output"):
            raise ValueError(f"space must be 'input' or 'output', got {space!r}")
        check_integer("N", N, 1)
        check_integer("channels", channels, 1)
        data = np.array(data, dtype=float).reshape(-1)  # a copy: the caller's array stays its own
        if data.size != N * channels:
            raise ValueError(f"data length {data.size} != N*channels = {N * channels}")
        data.setflags(write=False)
        setattr_ = object.__setattr__  # the dataclass is frozen
        setattr_(self, "data", data)
        setattr_(self, "space", space)
        setattr_(self, "N", N)
        setattr_(self, "channels", channels)


@dataclass(frozen=True)
class LiftedSystem:
    """Lifted operator of a causal LTI plant over a trial of N samples.

    The plant is held as its first N Markov parameters, ``markov[k]`` being
    the ``n_o x n_i`` response at lag k.  :meth:`product` applies the
    operator and :meth:`adjoint` its transpose; ``matrix`` is its dense form,
    built on first use.
    """

    markov: np.ndarray

    def __post_init__(self):
        markov = np.array(self.markov, dtype=float)  # a copy: the caller's array stays writeable
        if markov.ndim != 3 or 0 in markov.shape:
            raise ValueError(f"Markov parameters must have shape (N >= 1, n_o >= 1, n_i >= 1), "
                             f"got {markov.shape}")
        if not np.isfinite(markov).all():
            raise ValueError("non-finite Markov parameters")
        object.__setattr__(self, "markov", _freeze(markov))

    @property
    def N(self) -> int:
        return self.markov.shape[0]

    @property
    def n_o(self) -> int:
        return self.markov.shape[1]

    @property
    def n_i(self) -> int:
        return self.markov.shape[2]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (N*n_o, N*n_i) operator.

        Block (l, m) is lower-triangular Toeplitz with the impulse response
        from input m to output l down its first column.
        """
        N = self.N
        idx = np.arange(N)
        lag = idx[:, None] - idx[None, :]
        causal = lag >= 0
        lag = lag.clip(min=0)
        J = np.zeros((N * self.n_o, N * self.n_i))
        for l in range(self.n_o):
            for m in range(self.n_i):
                J[l * N:(l + 1) * N, m * N:(m + 1) * N] = np.where(causal, self.markov[lag, l, m], 0.0)
        return _freeze(J)

    @cached_property
    def _spectrum(self) -> np.ndarray | None:
        """Markov parameters at 2N-point frequencies, shape (N+1, n_o, n_i).

        Zero padding to 2N makes the circular convolution equal the causal
        one on the first N samples.  None selects the dense product, for
        operators below ``STRUCTURED_MIN_ENTRIES`` entries.
        """
        if self.N ** 2 * self.n_o * self.n_i < STRUCTURED_MIN_ENTRIES:
            return None
        return np.fft.rfft(self.markov, n=2 * self.N, axis=0)

    def product(self, x: np.ndarray) -> np.ndarray:
        """J x for one input x of shape (n_i, N); the output has shape (n_o, N).

        Dense ``matrix @ x`` for small operators; for large ones the block
        convolution by FFT, one ``n_o x n_i`` product per frequency.
        """
        N = self.N
        if self._spectrum is None:  # matrix.dot: the BLAS call of matrix @ x, less dispatch
            return self.matrix.dot(x.reshape(-1)).reshape(self.n_o, N)
        xf = np.fft.rfft(x, n=2 * N, axis=1)
        yf = np.matmul(self._spectrum, xf.T[:, :, None])  # (N+1, n_o, 1)
        return np.fft.irfft(yf[:, :, 0].T, n=2 * N, axis=1)[:, :N]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """J^T y for one output y of shape (n_o, N); the result has shape (n_i, N).

        Dense ``matrix.T @ y`` for small operators.  For large ones
        J^T = T J' T, T reversing each channel's samples and J' the block
        transpose of J (block (l, m) of J' is block (m, l) of J, itself causal
        Toeplitz): the block convolution by FFT with the spectrum's channel
        axes swapped, a view.
        """
        N = self.N
        if self._spectrum is None:
            return self.matrix.T.dot(y.reshape(-1)).reshape(self.n_i, N)
        yf = np.fft.rfft(y[:, ::-1], n=2 * N, axis=1)
        xf = np.matmul(self._spectrum.transpose(0, 2, 1), yf.T[:, :, None])  # (N+1, n_i, 1)
        return np.fft.irfft(xf[:, :, 0].T, n=2 * N, axis=1)[:, N - 1::-1]


def markov_parameters(ss: StateSpace, N: int) -> np.ndarray:
    """First ``N`` Markov parameters, shape (N, n_o, n_i); index 0 is D."""
    out = np.empty((N, ss.n_o, ss.n_i))
    out[0] = ss.D
    X = ss.B.copy()
    for k in range(1, N):
        out[k] = ss.C @ X
        X = ss.A @ X
    return out


def lift(ss: StateSpace, N: int) -> LiftedSystem:
    """The lifted operator of ``ss`` over a trial of ``N`` samples."""
    return LiftedSystem(markov_parameters(ss, check_integer("N", N, 1)))


def save_system(path, ss: StateSpace, N: int) -> None:
    """Write ``ss`` and the trial length ``N`` as JSON; :func:`load_system` reads it back."""
    doc = {
        "n_x": ss.n_x,
        "n_i": ss.n_i,
        "n_o": ss.n_o,
        "N": int(check_integer("N", N, 1)),
        "A": ss.A.tolist(),
        "B": ss.B.tolist(),
        "C": ss.C.tolist(),
        "D": ss.D.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_system(path) -> tuple[StateSpace, int]:
    with open(path) as fh:
        doc = json.load(fh)
    n_x, n_i, n_o = (check_integer(k, doc[k], minimum) for k, minimum in
                     (("n_x", 0), ("n_i", 1), ("n_o", 1)))
    ss = StateSpace(
        A=np.asarray(doc["A"], dtype=float).reshape(n_x, n_x),
        B=np.asarray(doc["B"], dtype=float).reshape(n_x, n_i),
        C=np.asarray(doc["C"], dtype=float).reshape(n_o, n_x),
        D=np.asarray(doc["D"], dtype=float).reshape(n_o, n_i),
    )
    return ss, check_integer("N", doc["N"], 1)
