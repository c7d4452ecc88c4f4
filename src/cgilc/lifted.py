"""Lifted (trial-domain) representations of discrete-time MIMO LTI systems.

A system with ``n_i`` inputs and ``n_o`` outputs acting over a finite trial
of ``N`` samples is held as its first ``N`` Markov parameters.  As a matrix it
is made of ``n_o x n_i`` lower-triangular Toeplitz blocks, one per
input/output channel pair, acting on signals stacked channel-major: channel
``l`` occupies the slice ``[l*N, (l+1)*N)``.

Large operators are applied by FFT block convolution of their Markov
parameters (Golub & Van Loan, *Matrix Computations*, section 4.7), small ones
by the dense product; see :meth:`LiftedSystem.product`.  The dense matrix is
built only when something asks for it.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np


# Operators of at least this many entries are applied by FFT convolution.  One
# apply (one BLAS thread, 2-vCPU x86-64 guest) took 21 us by FFT against 5.7 us
# dense at 36,864 entries, 26 us against 46 us at 262,144, and 0.07 ms against
# 1.4 ms at 4.41M.
STRUCTURED_MIN_ENTRIES = 2 ** 18
FFT_BATCH_COLUMNS = 64  # inputs per FFT chunk, which bounds transient memory

_scratch = threading.local()  # per-thread FFT work arrays, see _work_arrays


def _work_arrays(N: int, n_i: int, n_o: int, width: int) -> tuple[np.ndarray, ...]:
    """Work arrays of the FFT apply for chunks of up to ``width`` inputs.

    Each thread keeps one set and reuses it while the plant shape repeats.
    Fresh multi-megabyte temporaries on every batch made the allocator map
    and fault in pages again on each call: about 4,000 page faults per
    441-input batch on the 21x21, N=100 plant.  The chunk axis comes first,
    so a chunk's views have the same strides whatever the arrays' width.
    """
    key = (N, n_i, n_o)
    arrays = getattr(_scratch, "arrays", None)
    if arrays is None or _scratch.key != key or len(arrays[0]) < width:
        arrays = (np.empty((width, n_i, N)),                  # input chunk
                  np.empty((width, n_i, N + 1), complex),     # its spectrum
                  np.empty((width, N + 1, n_o), complex),     # output spectrum
                  np.empty((width, n_o, 2 * N)))              # circular output
        _scratch.key, _scratch.arrays = key, arrays
    return arrays


class LiftingError(ValueError):
    """Lifted operator could not be constructed (unstable or malformed model)."""


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


@dataclass(frozen=True)
class Signal:
    """Channel-major stacked signal over one trial.

    ``data`` has length ``N * channels``; ``space`` tags whether the signal
    lives on the input side ("input") or the output side ("output") of the
    plant.  Signals are immutable; arithmetic returns new instances.
    """

    data: np.ndarray
    space: str
    N: int
    channels: int

    def __post_init__(self):
        if self.space not in ("input", "output"):
            raise ValueError(f"space must be 'input' or 'output', got {self.space!r}")
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.size != self.N * self.channels:
            raise ValueError(
                f"data length {data.size} != N*channels = {self.N * self.channels}")
        object.__setattr__(self, "data", _freeze(data))

    @classmethod
    def zeros(cls, space: str, N: int, channels: int) -> "Signal":
        return cls(np.zeros(N * channels), space, N, channels)

    def channel(self, l: int) -> np.ndarray:
        """Samples of channel ``l`` (0-based)."""
        return self.data[l * self.N:(l + 1) * self.N]

    def with_data(self, data: np.ndarray) -> "Signal":
        return Signal(data, self.space, self.N, self.channels)

    def _check_compatible(self, other: "Signal"):
        if (self.space, self.N, self.channels) != (other.space, other.N, other.channels):
            raise ValueError("signals live in different spaces")

    def __add__(self, other: "Signal") -> "Signal":
        self._check_compatible(other)
        return self.with_data(self.data + other.data)

    def __sub__(self, other: "Signal") -> "Signal":
        self._check_compatible(other)
        return self.with_data(self.data - other.data)

    def __mul__(self, scalar: float) -> "Signal":
        return self.with_data(self.data * float(scalar))

    __rmul__ = __mul__

    def dot(self, other: "Signal") -> float:
        self._check_compatible(other)
        return float(self.data @ other.data)

    def norm_sq(self) -> float:
        return float(self.data @ self.data)


@dataclass(frozen=True)
class TimeReversal:
    """Per-channel sample-order reversal (block-diagonal, involutory)."""

    N: int
    channels: int

    def __call__(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float).reshape(self.channels, self.N)
        return data[:, ::-1].reshape(-1)

    def matrix(self) -> np.ndarray:
        """Dense permutation matrix, mainly for tests."""
        flip = np.eye(self.N)[::-1]
        M = np.zeros((self.N * self.channels,) * 2)
        for c in range(self.channels):
            M[c * self.N:(c + 1) * self.N, c * self.N:(c + 1) * self.N] = flip
        return M


@dataclass(frozen=True)
class LiftedSystem:
    """Lifted operator of a causal LTI plant over a trial of N samples.

    The plant is held as its first N Markov parameters, ``markov[k]`` being
    the ``n_o x n_i`` response at lag k.  :meth:`product` and
    :meth:`product_rows` apply the operator; ``matrix`` is its dense form,
    built on first use.
    """

    markov: np.ndarray

    def __post_init__(self):
        markov = np.array(self.markov, dtype=float)  # a copy: the caller's array stays writeable
        if markov.ndim != 3 or len(markov) == 0:
            raise ValueError(f"Markov parameters must have shape (N >= 1, n_o, n_i), "
                             f"got {markov.shape}")
        if not np.isfinite(markov).all():
            raise LiftingError("non-finite Markov parameters")
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

    def block(self, l: int, m: int) -> np.ndarray:
        """The N x N Toeplitz block from input channel ``m`` to output ``l``."""
        N = self.N
        return self.matrix[l * N:(l + 1) * N, m * N:(m + 1) * N]

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
        """J x for one stacked input vector of length N*n_i.

        Dense ``matrix @ x`` for small operators; for large ones the block
        convolution by FFT, which reads ``x`` in place.
        """
        if self._spectrum is None:
            return self.matrix @ x
        return self.product_rows(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def product_rows(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        """J u for each stacked input vector u, as the rows of a (k, N*n_o) array.

        The dense branch multiplies the inputs stacked as columns.  The FFT
        branch runs ``FFT_BATCH_COLUMNS`` inputs at a time; it reads the rows
        of a 2-D array in place and stacks a sequence of vectors chunk by
        chunk into a work array.
        """
        if self._spectrum is None:
            return (self.matrix @ np.stack(inputs, axis=1)).T
        N, n_i, n_o, H = self.N, self.n_i, self.n_o, self._spectrum
        out = np.empty((len(inputs), N * n_o))
        width = min(len(inputs), FFT_BATCH_COLUMNS)
        x, xf, yf, y = _work_arrays(N, n_i, n_o, width)
        for start in range(0, len(inputs), width):
            c = min(width, len(inputs) - start)
            if isinstance(inputs, np.ndarray):
                chunk = inputs[start:start + c].reshape(c, n_i, N)
            else:
                chunk = x[:c]
                np.stack(inputs[start:start + c], out=chunk.reshape(c, n_i * N))
            np.fft.rfft(chunk, n=2 * N, axis=2, out=xf[:c])
            np.matmul(H, xf[:c].transpose(2, 1, 0), out=yf[:c].transpose(1, 2, 0))
            np.fft.irfft(yf[:c].transpose(0, 2, 1), n=2 * N, axis=2, out=y[:c])
            out[start:start + c].reshape(c, n_o, N)[...] = y[:c, :, :N]
        return out


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
    if N < 1:
        raise ValueError("N must be >= 1")
    return LiftedSystem(markov_parameters(ss, N))


def apply(system: LiftedSystem, f: Signal) -> Signal:
    """Exact product y = J f for an input-space signal."""
    if f.space != "input" or f.N != system.N or f.channels != system.n_i:
        raise ValueError("signal is not an input of this system")
    return Signal(system.matrix @ f.data, "output", system.N, system.n_o)


def adjoint_apply(system: LiftedSystem, v: Signal) -> Signal:
    """Exact product J^T v; ground-truth oracle, not an experiment."""
    if v.space != "output" or v.N != system.N or v.channels != system.n_o:
        raise ValueError("signal is not an output of this system")
    return Signal(system.matrix.T @ v.data, "input", system.N, system.n_i)


def time_reverse(x: Signal) -> Signal:
    """Reverse sample order within each channel; channel order is kept."""
    return x.with_data(TimeReversal(x.N, x.channels)(x.data))


def system_to_json(ss: StateSpace, N: int) -> dict:
    """JSON document for a system; lifted blocks are re-derived on load."""
    return {
        "n_x": ss.n_x,
        "n_i": ss.n_i,
        "n_o": ss.n_o,
        "N": int(N),
        "A": ss.A.tolist(),
        "B": ss.B.tolist(),
        "C": ss.C.tolist(),
        "D": ss.D.tolist(),
    }


def system_from_json(doc: dict) -> tuple[StateSpace, int]:
    n_x, n_i, n_o = int(doc["n_x"]), int(doc["n_i"]), int(doc["n_o"])
    ss = StateSpace(
        A=np.asarray(doc["A"], dtype=float).reshape(n_x, n_x),
        B=np.asarray(doc["B"], dtype=float).reshape(n_x, n_i),
        C=np.asarray(doc["C"], dtype=float).reshape(n_o, n_x),
        D=np.asarray(doc["D"], dtype=float).reshape(n_o, n_i),
    )
    return ss, int(doc["N"])


def save_system(path, ss: StateSpace, N: int) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_json(ss, N), fh, indent=1)
        fh.write("\n")


def load_system(path) -> tuple[StateSpace, int]:
    with open(path) as fh:
        return system_from_json(json.load(fh))
