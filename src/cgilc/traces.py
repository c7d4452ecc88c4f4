"""CSV serialization of run traces.

Floats are written in exponent notation with 17 significant digits, which
round-trips IEEE-754 doubles, so re-running a seeded benchmark reproduces
the files byte for byte.
"""

from __future__ import annotations

from .solvers import IterationRecord, RunTrace

CSV_HEADER = "j,experiments_cum,cost_measured,cost_true,epsilon,tau,reset"


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.16e}"


def trace_to_csv(trace: RunTrace) -> str:
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(f"{r.j},{r.experiments_cum},{r.cost_measured:.16e},{r.cost_true:.16e},"
                     f"{_fmt(r.epsilon)},{_fmt(r.tau)},{1 if r.reset else 0}")
    return "\n".join(lines) + "\n"


def write_trace(trace: RunTrace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def read_trace_csv(path) -> list[IterationRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        records = [IterationRecord(int(j), int(exps), float(cm), float(ct),
                                   float(eps) if eps else None, float(tau) if tau else None,
                                   reset == "1")
                   for j, exps, cm, ct, eps, tau, reset in
                   (line.split(",") for line in map(str.strip, fh) if line)]
    if not records:
        raise ValueError(f"{path}: no data rows")
    return records
