"""Benchmark harness: run solver comparisons across seeds, emit CSV traces.

A benchmark is described by a JSON spec (see :func:`spec_from_json`).  Every
(solver, seed) pair gets a fresh oracle with independent noise and mask
streams, runs until its experiment budget or termination, and leaves one CSV
trace behind.  A summary table reports the cumulative experiments needed to
push the cost below 1e-1, 1e-2 and 1e-3 of its initial value.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .lifted import LiftedSystem, Signal, lift, load_system
from .oracle import NoiseModel, PlantOracle
from .rng import combine
from .solvers import RunTrace, SolverConfig, run_solver
from .sysgen import generate_system, make_step_disturbance
from .traces import write_trace

THRESHOLDS = (1e-1, 1e-2, 1e-3)

MASTER_SEED_ENV = "ILC_MASTER_SEED"


class UsageError(ValueError):
    """Malformed benchmark spec or arguments."""


@dataclass(frozen=True)
class GenerateSource:
    n_x: int
    n_i: int
    n_o: int
    N: int
    seed: int
    feedthrough_gain: float = 0.0


@dataclass(frozen=True)
class LoadSource:
    path: str


@dataclass(frozen=True)
class StepDisturbance:
    amplitude: float = 1.0


@dataclass(frozen=True)
class CustomDisturbance:
    path: str


@dataclass(frozen=True)
class BenchmarkSpec:
    system: GenerateSource | LoadSource
    disturbance: StepDisturbance | CustomDisturbance
    noise: NoiseModel
    solvers: tuple[SolverConfig, ...]
    budget: int
    seeds: tuple[int, ...]

    def __post_init__(self):
        if self.budget <= 0:
            raise UsageError("budget must be > 0")
        if not self.solvers:
            raise UsageError("at least one solver is required")
        if not self.seeds:
            raise UsageError("at least one seed is required")


def _solver_from_json(doc: dict) -> SolverConfig:
    known = {"kind", "max_iterations", "reset_period", "step_mode", "decay_a",
             "decay_gamma", "seed", "estimator", "label"}
    unknown = set(doc) - known
    if unknown:
        raise UsageError(f"unknown solver fields: {sorted(unknown)}")
    try:
        return SolverConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad solver config: {exc}") from exc


def spec_from_json(doc: dict) -> BenchmarkSpec:
    try:
        sys_doc = doc["system"]
        if "generate" in sys_doc:
            system = GenerateSource(**sys_doc["generate"])
        elif "load" in sys_doc:
            system = LoadSource(sys_doc["load"])
        else:
            raise UsageError("system must have 'generate' or 'load'")
        dist_doc = doc.get("disturbance", {"kind": "step"})
        if dist_doc.get("kind", "step") == "step":
            disturbance = StepDisturbance(float(dist_doc.get("amplitude", 1.0)))
        elif dist_doc["kind"] == "custom":
            disturbance = CustomDisturbance(dist_doc["path"])
        else:
            raise UsageError(f"unknown disturbance kind {dist_doc['kind']!r}")
        noise_doc = doc.get("noise", {"kind": "none"})
        noise = NoiseModel(kind=noise_doc.get("kind", "none"),
                           sigma=float(noise_doc.get("sigma", 0.0)),
                           seed=int(noise_doc.get("seed", 0)))
        solvers = tuple(_solver_from_json(s) for s in doc["solvers"])
        budget = int(doc["budget"])
        seeds = tuple(int(s) for s in doc.get("seeds", [0]))
    except KeyError as exc:
        raise UsageError(f"missing spec field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"malformed spec: {exc}") from exc
    env = os.environ.get(MASTER_SEED_ENV)
    if env is not None:
        seeds = (int(env),)
    return BenchmarkSpec(system, disturbance, noise, solvers, budget, seeds)


def load_spec(path) -> BenchmarkSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read spec {path}: {exc}") from exc
    return spec_from_json(doc)


def _realize_system(spec: BenchmarkSpec) -> LiftedSystem:
    try:
        if isinstance(spec.system, GenerateSource):
            src = spec.system
            ss = generate_system(src.n_x, src.n_i, src.n_o, src.seed,
                                 feedthrough_gain=src.feedthrough_gain)
            return lift(ss, src.N)
        ss, N = load_system(spec.system.path)
        return lift(ss, N)
    except KeyError as exc:
        raise UsageError(f"system file lacks field {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad system: {exc}") from exc


def _realize_disturbance(spec: BenchmarkSpec, system: LiftedSystem) -> Signal:
    if isinstance(spec.disturbance, StepDisturbance):
        return make_step_disturbance(system.N, system.n_o, spec.disturbance.amplitude)
    path = spec.disturbance.path
    try:
        with open(path) as fh:
            doc = json.load(fh)
        r = Signal(doc["data"], "output", int(doc["N"]), int(doc["channels"]))
    except KeyError as exc:
        raise UsageError(f"disturbance {path} lacks field {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad disturbance {path}: {exc}") from exc
    if (r.N, r.channels) != (system.N, system.n_o):
        raise UsageError(f"disturbance {path} has N={r.N} and {r.channels} channels; "
                         f"the plant has N={system.N} and {system.n_o} outputs")
    if not np.isfinite(r.data).all():
        raise UsageError(f"disturbance {path} holds non-finite values")
    return r


@dataclass
class RunSummary:
    label: str
    kind: str
    run_seed: int
    status: str
    initial_cost: float | None = None
    experiments_to: dict[float, int | None] = field(default_factory=dict)
    final_cost_measured: float | None = None
    final_cost_true: float | None = None
    diverged: bool = False
    csv_path: str | None = None


@dataclass
class BenchmarkResult:
    spec: BenchmarkSpec
    summaries: list[RunSummary]
    traces: list[RunTrace]
    summary_path: str | None = None


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def summarize_trace(trace: RunTrace, noisy: bool) -> RunSummary:
    """Experiments-to-threshold table for one run.

    Thresholds are relative to the initial cost and evaluated on the true
    cost for noise-free runs, on the measured cost for noisy runs.
    ``diverged`` is set when the last record's measured cost is above the
    first record's measured cost, whether or not the run is noisy.
    """
    summary = RunSummary(label=trace.config.label, kind=trace.config.kind,
                         run_seed=trace.config.seed, status="ok")
    first = trace.records[0]
    initial = first.cost_measured if noisy else first.cost_true
    summary.initial_cost = initial
    for th in THRESHOLDS:
        summary.experiments_to[th] = trace.experiments_to_cost(th * initial, measured=noisy)
    last = trace.records[-1]
    summary.final_cost_measured = last.cost_measured
    summary.final_cost_true = last.cost_true
    summary.diverged = last.cost_measured > first.cost_measured
    return summary


def summary_to_csv(summaries: list[RunSummary]) -> str:
    cols = ["label", "kind", "run_seed", "status", "initial_cost",
            "exp_to_1e-1", "exp_to_1e-2", "exp_to_1e-3",
            "final_cost_measured", "final_cost_true", "diverged"]
    lines = [",".join(cols)]
    for s in summaries:
        fmt = lambda v: "" if v is None else f"{v:.16e}"
        row = [
            s.label, s.kind, str(s.run_seed), s.status,
            fmt(s.initial_cost),
            *["" if s.experiments_to.get(th) is None else str(s.experiments_to[th])
              for th in THRESHOLDS],
            fmt(s.final_cost_measured),
            fmt(s.final_cost_true),
            "1" if s.diverged else "0",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run_benchmark(spec: BenchmarkSpec, out_dir) -> BenchmarkResult:
    """Execute every (solver, seed) run and write traces plus a summary."""
    os.makedirs(out_dir, exist_ok=True)
    system = _realize_system(spec)
    disturbance = _realize_disturbance(spec, system)
    noisy = spec.noise.active
    summaries: list[RunSummary] = []
    traces: list[RunTrace] = []
    for si, solver in enumerate(spec.solvers):
        for run_seed in spec.seeds:
            run_noise = replace(spec.noise, seed=combine(spec.noise.seed, run_seed))
            cfg = replace(solver, seed=combine(solver.seed, run_seed))
            oracle = PlantOracle(system, disturbance, run_noise)
            name = f"{si:02d}_{_safe_name(solver.label)}_s{run_seed}"
            try:
                trace = run_solver(oracle, cfg, budget=spec.budget, system=system)
            except Exception as exc:  # solver failure: record, keep going
                summaries.append(RunSummary(
                    label=solver.label, kind=solver.kind, run_seed=run_seed,
                    status=f"error: {exc}"))
                continue
            path = os.path.join(out_dir, name + ".csv")
            write_trace(trace, path)
            summary = summarize_trace(trace, noisy)
            summary.run_seed = run_seed
            summary.csv_path = path
            summaries.append(summary)
            traces.append(trace)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="\n") as fh:
        fh.write(summary_to_csv(summaries))
    return BenchmarkResult(spec, summaries, traces, summary_path)
