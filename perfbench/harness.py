"""Workloads, timed passes, correctness checks and metrics of the cgilc benchmark.

A *pass* runs every (solver, seed) run of a workload once, one after the
other in this process (a closed loop with a single client), then writes the
trace CSVs, ``summary.csv`` and one SVG.  A benchmark invocation sets the
plants up several times, then repeats passes until its measuring time is
spent, and reports medians over them.  The package sees only the generated
plants and seeds.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from cgilc.bench import RunSummary, summarize_trace, summary_to_csv
from cgilc.defaults import default_noise_sigma
from cgilc.lifted import LiftedSystem, Signal, StateSpace, lift
from cgilc.oracle import NoiseModel, PlantOracle
from cgilc.plotting import plot_traces
from cgilc.solvers import SOLVER_KINDS, RunTrace, SolverConfig, run_solver
from cgilc.sysgen import generate_system, make_step_disturbance
from cgilc.traces import read_trace_csv, write_trace

from tracing import NULL_TRACER, ClockedOracle, TracedOracle, Tracer, traced_gradients

WORKLOADS = ("fig3-stoch", "fig4-noisy", "sweep-small")
SETUP_REPEATS = 11
FIG_STATES, FIG_CHANNELS, FIG_N = 84, 21, 100
FIG_GAIN = 185.0
# The figure workloads keep the acceptance suite's plant; their seed draws the
# solver and noise seeds.  Drawn plants made experiments-to-target vary 5x
# between seeds on fig4-noisy (see README.md).
FIG_PLANT_SEED = 0
STOCH_BUDGET = 2000
DET_CG_ITERATIONS = 80
SWEEP_PLANTS = 250
SWEEP_BUDGET = 400
SWEEP_ITERATIONS = 80
CHECK_RTOL = 1e-9
EPS = float(np.finfo(float).eps)
MIB = 2.0 ** 20
STOPS = ("budget", "max_iterations", "cost_tol", "degenerate_direction")


@dataclass(frozen=True)
class PlantSpec:
    n_x: int
    n_i: int
    n_o: int
    N: int
    seed: int
    gain: float
    noisy: bool


@dataclass(frozen=True)
class RunSpec:
    name: str
    plant: int
    cfg: SolverConfig
    budget: int
    noise_seed: int
    target: float  # relative to J0; on the measured cost for noisy plants


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    plants: tuple[PlantSpec, ...]
    runs: tuple[RunSpec, ...]


@dataclass
class Plant:
    spec: PlantSpec
    ss: StateSpace
    system: LiftedSystem
    r: Signal
    sigma: float


def _seeds(seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    return lambda: int(rng.integers(2 ** 31))


def _fig3(seed: int, toy: bool) -> Workload:
    n_x, ch, N, budget = (6, 3, 12, 60) if toy else (FIG_STATES, FIG_CHANNELS, FIG_N, STOCH_BUDGET)
    draw = _seeds(seed, 3)
    runs = tuple(
        RunSpec(f"{kind}_s{k}", 0, SolverConfig(kind, max_iterations=budget, seed=draw()),
                budget, 0, 1e-3)
        for kind in ("stoch_cg", "stoch_gd") for k in range(3))
    plant = PlantSpec(n_x, ch, ch, N, FIG_PLANT_SEED, FIG_GAIN, False)
    return Workload("fig3-stoch", seed, (plant,), runs)


def _fig4(seed: int, toy: bool) -> Workload:
    n_x, ch, N, budget, iters = ((6, 3, 12, 60, 10) if toy else
                                 (FIG_STATES, FIG_CHANNELS, FIG_N, STOCH_BUDGET, DET_CG_ITERATIONS))
    raw = PlantSpec(n_x, ch, ch, N, FIG_PLANT_SEED, 0.0, True)
    cond = PlantSpec(n_x, ch, ch, N, FIG_PLANT_SEED, FIG_GAIN, True)
    draw = _seeds(seed, 4)
    runs = []
    for k in range(2):
        runs.append(RunSpec(f"det_cg_raw_s{k}", 0,
                            SolverConfig("det_cg", max_iterations=iters, seed=draw()),
                            iters * (ch * ch + 2), draw(), 1e-1))
    for k in range(2):
        runs.append(RunSpec(f"stoch_cg_k20_s{k}", 1,
                            SolverConfig("stoch_cg", max_iterations=budget, reset_period=20,
                                         seed=draw()),
                            budget, draw(), 1e-1))
    return Workload("fig4-noisy", seed, (raw, cond), tuple(runs))


def _sweep(seed: int, toy: bool) -> Workload:
    rng = np.random.default_rng([seed, 5])
    plants, runs = [], []
    for i in range(6 if toy else SWEEP_PLANTS):
        n_i, n_o = (int(v) for v in rng.integers(1, 4, size=2))
        n_x, N = int(rng.integers(0, 9)), int(rng.integers(8, 65))
        noisy = i % 2 == 1
        plants.append(PlantSpec(n_x, n_i, n_o, N, int(rng.integers(2 ** 31)),
                                float(rng.uniform(0.0, 4.0)), noisy))
        run_seed, noise_seed = (int(v) for v in rng.integers(2 ** 31, size=2))
        for kind in SOLVER_KINDS:
            runs.append(RunSpec(f"p{i:03d}_{kind}", i,
                                SolverConfig(kind, max_iterations=SWEEP_ITERATIONS, seed=run_seed),
                                SWEEP_BUDGET, noise_seed, 1e-1 if noisy else 1e-3))
    return Workload("sweep-small", seed, tuple(plants), tuple(runs))


def build_workload(name: str, seed: int, toy: bool = False) -> Workload:
    """The workload's plants and runs, all derived from ``seed``."""
    builders = {"fig3-stoch": _fig3, "fig4-noisy": _fig4, "sweep-small": _sweep}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return builders[name](seed, toy)


def set_up(wl: Workload, tracer=NULL_TRACER) -> list[Plant]:
    plants = []
    for p in wl.plants:
        with tracer.span("sysgen.generate_system"):
            ss = generate_system(p.n_x, p.n_i, p.n_o, p.seed, feedthrough_gain=p.gain)
        with tracer.span("lifted.lift"):
            system = lift(ss, p.N)
        r = make_step_disturbance(p.N, p.n_o)
        plants.append(Plant(p, ss, system, r, default_noise_sigma(r) if p.noisy else 0.0))
    return plants


@dataclass
class Outcome:
    run: RunSpec
    oracle: ClockedOracle
    trace: RunTrace | None = None
    error: str = ""
    end: float = 0.0
    csv_path: str = ""
    summary: RunSummary | None = None


@dataclass
class PassStats:
    """What is kept of a checked pass; its traces are dropped with the pass."""

    solve_s: float
    experiments: int
    iteration_ms: list[float]
    to_target: list[tuple[int, bool]]  # per run; a miss counts at its budget
    problems: list[str]
    failed: set[str]
    solver: dict[str, int]
    tracer: Tracer | None

    @property
    def hit_rate(self) -> float:
        return sum(hit for _, hit in self.to_target) / len(self.to_target)


def make_oracle(plant: Plant, run: RunSpec, tracer) -> ClockedOracle:
    noise = (NoiseModel("gaussian", plant.sigma, run.noise_seed) if plant.spec.noisy
             else NoiseModel())
    if isinstance(tracer, Tracer):
        return TracedOracle(tracer, plant.system, plant.r, noise)
    return ClockedOracle(plant.system, plant.r, noise)


def run_pass(wl: Workload, plants: list[Plant], out_dir: str, tracer=NULL_TRACER) -> PassStats:
    """All runs of the workload, then the summary and the plot (timed), then the checks."""
    outcomes, summaries, csvs = [], [], []
    t0 = perf_counter()
    for run in wl.runs:
        plant = plants[run.plant]
        oracle = make_oracle(plant, run, tracer)
        outcome = Outcome(run, oracle)
        outcomes.append(outcome)
        try:
            with tracer.span("solvers.run_solver", run=run.name):
                outcome.trace = run_solver(oracle, run.cfg, budget=run.budget,
                                           system=plant.system)
        except Exception as exc:  # a failing run is reported by name, never dropped
            outcome.error = f"raised {type(exc).__name__}: {exc}"
            continue
        finally:
            outcome.end = perf_counter()
        outcome.csv_path = os.path.join(out_dir, run.name + ".csv")
        with tracer.span("traces.write_trace", run=run.name) as span:
            write_trace(outcome.trace, outcome.csv_path)
        if span is not None:
            span.counts["bytes"] = os.path.getsize(outcome.csv_path)
        with tracer.span("bench.summarize", run=run.name):
            outcome.summary = summarize_trace(outcome.trace, plant.spec.noisy)
        summaries.append(outcome.summary)
        csvs.append(outcome.csv_path)
    with tracer.span("bench.summary_csv") as span:
        text = summary_to_csv(summaries)
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="\n") as fh:
            fh.write(text)
    if span is not None:
        span.counts["bytes"] = len(text.encode())
    svg = os.path.join(out_dir, "traces.svg")
    warnings = []
    if csvs:
        with tracer.span("plotting.plot_traces") as span:
            warnings = plot_traces(csvs, svg, normalize=True)
        if span is not None:
            span.counts["bytes"] = os.path.getsize(svg)
    solve_s = perf_counter() - t0

    problems, failed = [f"plot: {w}" for w in warnings], set()
    for o in outcomes:
        for msg in check_run(plants[o.run.plant], o):
            problems.append(f"{o.run.name}: {msg}")
            failed.add(o.run.name)
    traces = [o.trace for o in outcomes if o.trace is not None]
    iteration_ms, to_target = [], []
    for o in outcomes:
        if o.trace is not None:
            t = o.oracle.trial_times + [o.end]
            iteration_ms.extend(1e3 * (b - a) for a, b in zip(t, t[1:]))
        exp = None if o.summary is None else o.summary.experiments_to[o.run.target]
        to_target.append((o.run.budget, False) if exp is None else (exp, True))
    pairs = [(a.cost_true, b.cost_true) for t in traces for a, b in zip(t.records, t.records[1:])]
    solver = {
        "runs": len(traces),
        "iterations": sum(len(t.records) for t in traces),
        "resets": sum(rec.reset for t in traces for rec in t.records),
        "successors": len(pairs),
        "descents": sum(b < a for a, b in pairs),
        **{f"stop.{reason}": sum(t.stop_reason == reason for t in traces) for reason in STOPS},
    }
    return PassStats(solve_s, sum(o.oracle.snapshot_count() for o in outcomes), iteration_ms,
                     to_target, problems, failed, solver,
                     tracer if isinstance(tracer, Tracer) else None)


def simulate(ss: StateSpace, u: np.ndarray) -> np.ndarray:
    """State recursion x+ = Ax + Bu, y = Cx + Du over u of shape (n_i, N)."""
    x = np.zeros(ss.n_x)
    y = np.empty((ss.n_o, u.shape[1]))
    for k in range(u.shape[1]):
        y[:, k] = ss.C @ x + ss.D @ u[:, k]
        x = ss.A @ x + ss.B @ u[:, k]
    return y


def abs_response_norm(ss: StateSpace, u: np.ndarray) -> float:
    """Norm of |H| * |u|: the size of the terms the output sums, from C A^k B and D."""
    N = u.shape[1]
    au = np.abs(u)
    out = np.abs(ss.D) @ au
    X = ss.B
    for k in range(1, N):
        out[:, k:] += np.abs(ss.C @ X) @ au[:, :N - k]
        X = ss.A @ X
    return float(np.linalg.norm(out))


def check_run(plant: Plant, outcome: Outcome) -> list[str]:
    """Problems with one run's output, judged without the package's lifted matrix."""
    if outcome.error:
        return [outcome.error]
    trace, run, problems = outcome.trace, outcome.run, []
    recs = trace.records
    r = plant.r.data
    j0 = float(r @ r)
    if not math.isclose(recs[0].cost_true, j0, rel_tol=1e-12):
        problems.append(f"records[0].cost_true {recs[0].cost_true!r} != ||r||^2 {j0!r}")
    exps = [rec.experiments_cum for rec in recs]
    if any(b <= a for a, b in zip(exps, exps[1:])) or exps[0] < 1:
        problems.append("experiments_cum does not increase strictly")
    if max(exps[-1], outcome.oracle.snapshot_count()) > run.budget:
        problems.append(f"{outcome.oracle.snapshot_count()} experiments exceed budget {run.budget}")
    if (not plant.spec.noisy and run.cfg.kind != "norm_optimal"
            and run.cfg.step_mode == "optimal_line_search"):
        costs = [rec.cost_true for rec in recs]
        rises = [k for k in range(1, len(costs)) if costs[k] > costs[k - 1] + CHECK_RTOL * j0]
        if rises:
            problems.append(f"noise-free line search raised the true cost at j={rises[0] + 1}")
    p = plant.spec
    u = trace.final_input.data.reshape(p.n_i, p.N)
    sim_cost = float(np.sum((r.reshape(p.n_o, p.N) - simulate(plant.ss, u)) ** 2))
    oracle_cost = PlantOracle.true_cost(outcome.oracle, trace.final_input)
    # Rounding moves either output by at most n*eps*(||r|| + || |H| |u| ||),
    # n terms per sample; that moves a cost c by up to 2 sqrt(c) delta + delta^2.
    # It matters only where a huge input nearly cancels in the output.
    cost = max(sim_cost, oracle_cost)
    delta = p.N * p.n_i * EPS * (math.sqrt(j0) + abs_response_norm(plant.ss, u))
    if abs(sim_cost - oracle_cost) > CHECK_RTOL * cost + 2 * math.sqrt(cost) * delta + delta ** 2:
        problems.append(f"simulated final cost {sim_cost!r} != oracle true_cost {oracle_cost!r}")
    if read_trace_csv(outcome.csv_path) != recs:
        problems.append("trace CSV does not round-trip through read_trace_csv")
    return problems


def _measure(wl: Workload, plants: list[Plant], out_dir: str, seconds: float,
             traced=lambda k: False, min_passes: int = 1) -> list[PassStats]:
    """Run ``min_passes`` passes, then more while one of average length ends within ``seconds``.

    Pass ``k`` is traced when ``traced(k)``.  Every later pass must repeat the
    first pass's experiment counts.
    """
    passes = []
    t_start = perf_counter()
    while (len(passes) < min_passes
           or (perf_counter() - t_start) * (1 + 1 / len(passes)) <= seconds):
        if traced(len(passes)):
            tracer = Tracer()
            with traced_gradients(tracer):
                stats = run_pass(wl, plants, out_dir, tracer)
        else:
            stats = run_pass(wl, plants, out_dir)
        if passes and (stats.to_target, stats.experiments) != (
                passes[0].to_target, passes[0].experiments):
            stats.problems.append("experiment counts differ from the first pass")
        passes.append(stats)
    return passes


@dataclass
class Report:
    """What one invocation prints: metrics as (value, unit, note), and context."""

    metrics: dict[str, tuple[float, str, str]]
    attempted: int
    failed: int
    problems: list[str]
    manifest: dict
    lines: list[str]
    out_dir: str

    @property
    def correct(self) -> bool:
        return not self.problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: str,
                 toy: bool = False) -> Report:
    wl = build_workload(name, seed, toy)
    out_dir = os.path.join(out_root, f"{name}-s{seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    setup_times, plants = [], None
    for _ in range(SETUP_REPEATS):
        plants = None  # drop the previous set before building the next one
        t0 = perf_counter()
        plants = set_up(wl)
        setup_times.append(perf_counter() - t0)

    if trace:
        setup_tracer = Tracer()
        set_up(wl, setup_tracer)
        passes = _measure(wl, plants, out_dir, seconds, lambda k: k % 2 == 1, min_passes=2)
        report_metrics, lines = layer_metrics(plants, passes, setup_tracer)
        for i, stats in enumerate(passes):
            if stats.tracer is not None:
                stats.tracer.write_csv(os.path.join(out_dir, f"spans_pass{i}.csv"))
    else:
        passes = _measure(wl, plants, out_dir, seconds)
        report_metrics, lines = end_to_end_metrics(passes, setup_times)

    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    failed = sorted(set().union(*(p.failed for p in passes)))
    attempted = len(wl.runs)
    lines.append(f"target_hit_rate {passes[0].hit_rate!r} fraction (of {attempted} runs)")
    lines.append(f"runs_failed.share {len(failed) / attempted!r} fraction "
                 f"(runs_attempted {attempted}; failed: {', '.join(failed) or 'none'})")
    return Report(report_metrics, attempted, len(failed), problems,
                  manifest(wl, seed, len(passes), setup_times), lines, out_dir)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end_metrics(passes: list[PassStats], setup_times: list[float]):
    solve_s = statistics.median(p.solve_s for p in passes)
    iters = [ms for p in passes for ms in p.iteration_ms]
    first, n = passes[0], len(passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "solve_s": (solve_s, "s", f"median of {n} passes"),
        "experiments_per_s": (first.experiments / solve_s, "1/s",
                              f"{first.experiments} experiments per pass"),
        "iter_ms.p50": (_percentile(iters, 50), "ms", f"{len(iters)} iterations"),
        "iter_ms.p95": (_percentile(iters, 95), "ms", f"{len(iters)} iterations"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "own process, 2^20 bytes"),
        "exp_to_target.mean": (statistics.fmean(e for e, _ in first.to_target), "experiments",
                               "count; a miss counts at its budget"),
    }
    # p99 is printed, not a result metric: interference bursts on a shared
    # box decide it (see README.md).
    return metrics, [f"iter_ms.p99 {_percentile(iters, 99)!r} ms ({len(iters)} iterations)",
                     "solve_s per pass: " + " ".join(f"{p.solve_s:.4f}" for p in passes),
                     "setup_s per set-up: " + " ".join(f"{t:.4f}" for t in setup_times)]


LAYERS = ("sysgen", "lifted", "oracle", "gradients", "solvers", "bench", "traces", "plotting")


def layer_metrics(plants: list[Plant], passes: list[PassStats], setup_tracer: Tracer):
    """Per-layer metrics: per-pass means over the traced passes."""
    traced = [p for p in passes if p.tracer is not None]
    n = len(traced)
    calls, dur, own, counts = {}, {}, {}, {}

    def add(tracer: Tracer, scale: float):
        for span, self_s in zip(tracer.spans, tracer.self_times()):
            calls[span.name] = calls.get(span.name, 0) + scale
            dur[span.name] = dur.get(span.name, 0.0) + span.duration * scale
            own[span.name] = own.get(span.name, 0.0) + self_s * scale
            for key, value in span.counts.items():
                counts[(span.name, key)] = counts.get((span.name, key), 0) + value * scale

    add(setup_tracer, 1.0)
    grad_experiments = 0.0
    for p in traced:
        add(p.tracer, 1.0 / n)
        spans = p.tracer.spans
        grad_experiments += sum(s.counts.get("experiments", 0) for s in spans
                                if s.parent >= 0 and spans[s.parent].name.startswith("gradients.")
                                ) / n

    def total(prefix: str, key: str) -> float:
        return sum(v for (name, k), v in counts.items() if name.startswith(prefix) and k == key)

    first = traced[0]
    solver = first.solver
    iterations = solver["iterations"]
    experiments = first.experiments
    oracle_names = ("oracle.run_trial", "oracle.probe", "oracle.probe_many", "oracle.true_cost")
    oracle_s = sum(dur.get(k, 0.0) for k in oracle_names)
    exp_flop = sum(counts.get((k, "flop"), 0) for k in oracle_names[:3])
    exp_bytes = sum(counts.get((k, "bytes"), 0) for k in oracle_names[:3])
    flop, nbytes = total("oracle.", "flop"), total("oracle.", "bytes")
    grads = calls.get("gradients.stochastic", 0) + calls.get("gradients.deterministic", 0)
    solver_self = own.get("solvers.run_solver", 0.0)
    traced_s = statistics.median(p.solve_s for p in traced)
    plain_s = statistics.median(p.solve_s for p in passes if p.tracer is None)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit, note=""):
        m[name] = (float(value), unit, note)

    for span_name, metric in (("sysgen.generate_system", "sysgen.generate_system"),
                              ("lifted.lift", "lifted.lift")):
        put(f"{metric}.calls", calls.get(span_name, 0), "count", "one traced set-up")
        put(f"{metric}.s", dur.get(span_name, 0.0), "s", "one traced set-up")
    put("lifted.operator_mb", sum(8 * p.spec.N ** 2 * p.spec.n_i * p.spec.n_o for p in plants) / MIB,
        "MB", "computed: N^2 n_i n_o 8 bytes over live plants")
    put("oracle.experiments", experiments, "count")
    for name in oracle_names:
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.s", dur.get(name, 0.0), "s")
    put("oracle.probe_many.probes", counts.get(("oracle.probe_many", "experiments"), 0), "count")
    put("oracle.true_cost.share", ratio(dur.get("oracle.true_cost", 0.0), oracle_s), "fraction",
        "uncounted true_cost time over oracle busy time")
    put("oracle.noisy_experiments", total("oracle.", "noisy"), "count")
    put("oracle.apply_gflop", flop / 1e9, "GFLOP", "computed")
    put("oracle.apply_gb", nbytes / 1e9, "GB", "computed: operator bytes")
    put("oracle.gflops_per_s", ratio(flop / 1e9, oracle_s), "GFLOP/s",
        "computed flops over measured oracle busy time")
    put("oracle.flop_per_experiment", ratio(exp_flop, experiments), "flop", "computed")
    put("oracle.bytes_per_experiment", ratio(exp_bytes, experiments), "B", "computed")
    true_calls = calls.get("oracle.true_cost", 0)
    put("oracle.flop_per_true_cost", ratio(counts.get(("oracle.true_cost", "flop"), 0), true_calls),
        "flop", "computed")
    put("oracle.bytes_per_true_cost",
        ratio(counts.get(("oracle.true_cost", "bytes"), 0), true_calls), "B", "computed")
    put("oracle.flop_per_byte", ratio(flop, nbytes), "flop/B", "computed")
    for kind in ("stochastic", "deterministic"):
        put(f"gradients.{kind}.calls", calls.get(f"gradients.{kind}", 0), "count")
        put(f"gradients.{kind}.self_s", own.get(f"gradients.{kind}", 0.0), "s")
    put("gradients.experiments_per_gradient", ratio(grad_experiments, grads), "experiments")
    put("solvers.runs", solver["runs"], "count")
    put("solvers.iterations", iterations, "count")
    put("solvers.self_s", solver_self, "s", "run_solver minus oracle and gradient spans")
    put("solvers.self_ms_per_iteration", ratio(1e3 * solver_self, iterations), "ms")
    put("solvers.experiments_per_iteration", ratio(experiments, iterations), "experiments")
    put("solvers.resets", solver["resets"], "count")
    for reason in STOPS:
        put(f"solvers.stop.{reason}", solver[f"stop.{reason}"], "count")
    put("solvers.target_hit_rate", first.hit_rate, "fraction",
        "runs reaching the target over runs attempted")
    put("solvers.descent_ratio", ratio(solver["descents"], solver["successors"]), "fraction",
        "iterations lowering the true cost over iterations with a successor")
    put("bench.summarize.calls", calls.get("bench.summarize", 0), "count")
    put("bench.summarize.s", dur.get("bench.summarize", 0.0), "s")
    put("bench.summary_csv.bytes", counts.get(("bench.summary_csv", "bytes"), 0), "B")
    put("bench.summary_csv.s", dur.get("bench.summary_csv", 0.0), "s")
    for name in ("traces.write_trace", "plotting.plot_traces"):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.bytes", counts.get((name, "bytes"), 0), "B")
        put(f"{name}.s", dur.get(name, 0.0), "s")
    put("tracing.overhead", traced_s / plain_s - 1.0, "fraction",
        f"traced solve_s {traced_s:.4f} s over untraced {plain_s:.4f} s, minus 1")

    layer_self = {layer: sum(v for k, v in own.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    lines = ["self time per pass by layer: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1]))]
    ranked = sorted(own.items(), key=lambda kv: -kv[1])
    lines.append("self time per pass by span: " + ", ".join(f"{k} {v:.4f} s" for k, v in ranked))
    pm = own.get("oracle.probe_many", 0.0) + own.get("gradients.deterministic", 0.0)
    lines.append(f"oracle.probe_many + gradients.deterministic self time: {pm:.4f} s")
    return m, lines


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def manifest(wl: Workload, seed: int, n_passes: int, setup_times) -> dict:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        "workload": wl.name,
        "workload_seed": seed,
        "passes": n_passes,
        "setup_repeats": len(setup_times),
        "run_seeds": {r.name: {"solver": r.cfg.seed, "noise": r.noise_seed} for r in wl.runs},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas(), "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")},
        "git_commit": _git_commit(root),
        "plants": [{"n_x": p.n_x, "n_i": p.n_i, "n_o": p.n_o, "N": p.N,
                    "gain": p.gain, "noisy": p.noisy} for p in wl.plants],
        "platform": platform.platform(),
    }
