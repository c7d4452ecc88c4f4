"""Benchmark harness: run solver comparisons across seeds, emit CSV traces.

A benchmark is described by a JSON spec.  :func:`spec_from_json` realizes it
when it is loaded: each section's fields are checked by :func:`_fields`, the
plant is lifted and the disturbance built, so an unknown, missing or malformed
field raises UsageError before anything is written.  Every (solver, seed) pair
gets a fresh oracle with independent noise and mask streams, runs until its
budget or termination, and leaves one CSV trace behind.  A summary table gives
the experiments needed to push the cost below 1e-1, 1e-2 and 1e-3 of its start.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .lifted import LiftedSystem, Signal, check_integer, lift, load_system
from .oracle import NoiseModel, PlantOracle
from .rng import combine
from .solvers import RunTrace, SolverConfig, run_solver
from .sysgen import generate_system, make_step_disturbance
from .traces import trace_to_csv

THRESHOLDS = (1e-1, 1e-2, 1e-3)


class UsageError(ValueError):
    """Malformed benchmark spec or arguments."""


@dataclass(frozen=True)
class BenchmarkSpec:
    system: LiftedSystem
    disturbance: Signal
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


def _object(doc, name: str) -> dict:
    if not isinstance(doc, dict):
        raise UsageError(f"{name} must be a JSON object, got {doc!r}")
    return doc


def _fields(doc, name: str, required=(), optional=()) -> dict:
    """``doc`` if a JSON object with every ``required`` field and no field outside both lists."""
    unknown = sorted(set(_object(doc, name)) - set(required) - set(optional))
    if unknown:
        raise UsageError(f"unknown {name} fields: {unknown}")
    for key in required:
        if key not in doc:
            raise UsageError(f"missing {name} field: {key!r}")
    return doc


def _system_from_json(doc) -> LiftedSystem:
    sources = [s for s in ("generate", "load") if s in _object(doc, "system")]
    if len(sources) != 1:
        raise UsageError("system must hold exactly one of 'generate' or 'load'")
    if "load" in _fields(doc, "system", sources):
        try:
            return lift(*load_system(doc["load"]))
        except KeyError as exc:
            raise UsageError(f"system file lacks field {exc}") from exc
        except (OSError, TypeError, ValueError) as exc:
            raise UsageError(f"bad system: {exc}") from exc
    gen = _fields(doc["generate"], "generate", ("n_x", "n_i", "n_o", "N", "seed"),
                  ("feedthrough_gain",))
    return lift(generate_system(gen["n_x"], gen["n_i"], gen["n_o"], gen["seed"],
                                gen.get("feedthrough_gain", 0.0)), gen["N"])


def _disturbance_from_json(doc, system: LiftedSystem) -> Signal:
    kind = _object(doc, "disturbance").get("kind", "step")
    if kind == "step":
        amplitude = _fields(doc, "disturbance", (), ("kind", "amplitude")).get("amplitude", 1.0)
        return make_step_disturbance(system.N, system.n_o, amplitude)
    if kind != "custom":
        raise UsageError(f"unknown disturbance kind {kind!r}")
    path = _fields(doc, "disturbance", ("kind", "path"))["path"]
    try:
        with open(path) as fh:
            dist = json.load(fh)
        r = Signal(dist["data"], "output", check_integer("N", dist["N"]),
                   check_integer("channels", dist["channels"]))
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


def spec_from_json(doc) -> BenchmarkSpec:
    """The spec ``doc`` made ready to run: its plant lifted, its disturbance built.

    Any fault in ``doc``, or in a file that it names, raises UsageError.
    """
    try:
        doc = _fields(doc, "spec", ("system", "solvers", "budget"), ("disturbance", "noise", "seeds"))
        noise_doc = _fields(doc.get("noise", {}), "noise", (), ("kind", "sigma", "seed"))
        noise = NoiseModel(noise_doc.get("kind", "none"), noise_doc.get("sigma", 0.0),
                           check_integer("noise seed", noise_doc.get("seed", 0), 0))
        for name in ("solvers", "seeds"):
            if not isinstance(doc.get(name, []), list):
                raise UsageError(f"{name} must be a JSON array, got {doc[name]!r}")
        names = [f.name for f in fields(SolverConfig)]
        solvers = tuple(SolverConfig(**_fields(s, "solver", ("kind",), names)) for s in doc["solvers"])
        budget = check_integer("budget", doc["budget"])
        seeds = tuple(check_integer("seeds entry", s, 0) for s in doc.get("seeds", [0]))
        system = _system_from_json(doc["system"])
        disturbance = _disturbance_from_json(doc.get("disturbance", {}), system)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"malformed spec: {exc}") from exc
    return BenchmarkSpec(system, disturbance, noise, solvers, budget, seeds)


def load_spec(path) -> BenchmarkSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read spec {path}: {exc}") from exc
    return spec_from_json(doc)


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
    stop_reason: str = ""
    notes: str = ""
    csv_path: str | None = None


@dataclass
class BenchmarkResult:
    summaries: list[RunSummary]
    traces: list[RunTrace]
    summary_path: str | None = None


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def summarize_trace(trace: RunTrace, noisy: bool) -> RunSummary:
    """Experiments-to-threshold table for one run.

    Thresholds are relative to the initial cost and evaluated on the true
    cost for noise-free runs, on the measured cost for noisy runs.
    ``diverged`` is set when the last record's measured cost is not finite or
    is above the first record's measured cost, whether or not the run is noisy.
    """
    first, last = trace.records[0], trace.records[-1]
    initial = first.cost_measured if noisy else first.cost_true
    experiments_to = dict.fromkeys(THRESHOLDS)
    pending = list(THRESHOLDS)  # costs are >= 0, so a run reaches these in order
    for rec in trace.records:
        cost = rec.cost_measured if noisy else rec.cost_true
        while pending and cost <= pending[0] * initial:
            experiments_to[pending.pop(0)] = rec.experiments_cum
        if not pending:
            break
    return RunSummary(
        label=trace.config.label, kind=trace.config.kind, run_seed=trace.config.seed,
        status="ok", initial_cost=initial, experiments_to=experiments_to,
        final_cost_measured=last.cost_measured, final_cost_true=last.cost_true,
        diverged=(not math.isfinite(last.cost_measured)
                  or last.cost_measured > first.cost_measured),
        stop_reason=trace.stop_reason, notes=trace.notes)


def summary_to_csv(summaries: list[RunSummary]) -> str:
    """The summary table as CSV text; fields holding commas or quotes are quoted."""
    fmt = lambda v: "" if v is None else f"{v:.16e}"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "kind", "run_seed", "status", "initial_cost",
                     "exp_to_1e-1", "exp_to_1e-2", "exp_to_1e-3",
                     "final_cost_measured", "final_cost_true", "diverged",
                     "stop_reason", "notes"])
    for s in summaries:
        writer.writerow([
            s.label, s.kind, str(s.run_seed), s.status,
            fmt(s.initial_cost),
            *["" if s.experiments_to.get(th) is None else str(s.experiments_to[th])
              for th in THRESHOLDS],
            fmt(s.final_cost_measured),
            fmt(s.final_cost_true),
            "1" if s.diverged else "0",
            s.stop_reason,
            s.notes,
        ])
    return buf.getvalue()


def _write_output(path, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a UsageError naming it."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def run_benchmark(spec: BenchmarkSpec, out_dir) -> BenchmarkResult:
    """Execute every (solver, seed) run and write traces plus a summary.

    Raises UsageError if ``out_dir`` cannot be created, or a trace or the
    summary cannot be written.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out_dir}: {exc}") from exc
    noisy = spec.noise.active
    summaries: list[RunSummary] = []
    traces: list[RunTrace] = []
    for si, solver in enumerate(spec.solvers):
        for run_seed in spec.seeds:
            run_noise = replace(spec.noise, seed=combine(spec.noise.seed, run_seed))
            cfg = replace(solver, seed=combine(solver.seed, run_seed))
            oracle = PlantOracle(spec.system, spec.disturbance, run_noise)
            name = f"{si:02d}_{_safe_name(solver.label)}_s{run_seed}"
            try:
                trace = run_solver(oracle, cfg, budget=spec.budget, system=spec.system)
            except Exception as exc:  # solver failure: record, keep going
                summaries.append(RunSummary(
                    label=solver.label, kind=solver.kind, run_seed=run_seed,
                    status=f"error: {exc}"))
                continue
            path = os.path.join(out_dir, name + ".csv")
            _write_output(path, trace_to_csv(trace))
            summary = summarize_trace(trace, noisy)
            summary.run_seed = run_seed
            summary.csv_path = path
            summaries.append(summary)
            traces.append(trace)
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_output(summary_path, summary_to_csv(summaries))
    return BenchmarkResult(summaries, traces, summary_path)
