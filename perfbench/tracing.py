"""In-memory spans around the package's public calls, and the clocked oracles.

Spans are recorded only from the benchmark's own files: around the calls the
benchmark makes, through :class:`PlantOracle` subclasses, and by wrapping the
two gradient estimators where ``cgilc.solvers`` looks them up.  Nothing in the
package is edited.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter

import cgilc.solvers
from cgilc.oracle import PlantOracle

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    run: str
    start: float
    parent: int
    counts: dict = field(default_factory=dict)
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    def span(self, name: str, run: str = "", **counts):
        return _NULL


class Tracer:
    """Spans kept in a list, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, run: str = "", **counts):
        """Span ``name``; it carries ``run``, or else its parent's run id."""
        parent = self._open[-1] if self._open else -1
        rec = Span(name, run or (self.spans[parent].run if parent >= 0 else ""),
                   perf_counter(), parent, counts)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its (sequential) children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,run,start,end,parent,counts\n")
            for i, s in enumerate(self.spans):
                counts = ";".join(f"{k}={v}" for k, v in s.counts.items())
                fh.write(f"{i},{s.name},{s.run},{s.start:.9f},{s.end:.9f},{s.parent},{counts}\n")


NULL_TRACER = NullTracer()


class ClockedOracle(PlantOracle):
    """Reads the clock at every trial: the intervals are the per-iteration times."""

    def __init__(self, system, disturbance, noise):
        super().__init__(system, disturbance, noise)
        self.trial_times: list[float] = []

    def run_trial(self, f):
        self.trial_times.append(perf_counter())
        return super().run_trial(f)


class TracedOracle(ClockedOracle):
    """Spans every oracle call, with the experiments and the computed dense-apply cost.

    The cost model is the dense lifted apply of the package at the time the
    benchmark was written: ``2 m n`` flops per column and the ``8 m n`` operator
    bytes read once per call, for an ``m x n`` operator.
    """

    def __init__(self, tracer: Tracer, system, disturbance, noise):
        super().__init__(system, disturbance, noise)
        self._tracer = tracer
        self._mn = system.N * system.n_o * system.N * system.n_i
        self._noisy = noise.active

    def _span(self, name: str, experiments: int, columns: int):
        return self._tracer.span(name, experiments=experiments,
                                 noisy=experiments if self._noisy else 0,
                                 flop=2 * self._mn * columns, bytes=8 * self._mn)

    def run_trial(self, f):
        with self._span("oracle.run_trial", 1, 1):
            return super().run_trial(f)

    def probe(self, u):
        with self._span("oracle.probe", 1, 1):
            return super().probe(u)

    def probe_many(self, inputs):
        with self._span("oracle.probe_many", len(inputs), len(inputs)):
            return super().probe_many(inputs)

    def true_cost(self, f):
        with self._span("oracle.true_cost", 0, 1):
            return super().true_cost(f)


@contextlib.contextmanager
def traced_gradients(tracer: Tracer):
    """Wrap both gradient estimators where the solver loop looks them up."""
    originals = {name: getattr(cgilc.solvers, name)
                 for name in ("stochastic_gradient", "deterministic_gradient")}

    def wrap(span_name, fn):
        def wrapped(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return wrapped

    cgilc.solvers.stochastic_gradient = wrap(
        "gradients.stochastic", originals["stochastic_gradient"])
    cgilc.solvers.deterministic_gradient = wrap(
        "gradients.deterministic", originals["deterministic_gradient"])
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cgilc.solvers, name, fn)
