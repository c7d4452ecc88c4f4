"""Learning-control iteration schemes over a counted plant oracle.

Four experiment-driven solvers share one loop: conjugate-direction updates
with measured conjugation coefficients (stochastic CG), the classical
Fletcher-Reeves recurrence (deterministic CG), and plain gradient descent
with either exact line searches or a decaying step schedule.  A model-based
norm-optimal one-shot update is included as a ground-truth baseline.

All optimal-step solvers use the same rule: eps = e.(Jp) / ||Jp||^2 applied
as f <- f + eps p, which is the exact minimizer of the quadratic cost along
p regardless of how p was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradients import deterministic_gradient, stochastic_gradient
from .lifted import LiftedSystem, Signal
from .oracle import PlantOracle
from .rng import MASK_STREAM, stream

SOLVER_KINDS = ("stoch_cg", "det_cg", "stoch_gd", "det_gd", "norm_optimal")
STEP_MODES = ("optimal_line_search", "decaying")
ESTIMATORS = ("single", "full")
EPS_DENOMINATOR_TOL = 1e-14  # ||Jp||^2 below this share of ||p||^2 ||J||^2 is degenerate
COST_TOL = 1e-16  # stop once the true cost falls below this share of the first


class DegenerateDirectionError(ZeroDivisionError):
    """Search direction maps to (numerically) nothing through the plant."""


@dataclass(frozen=True)
class SolverConfig:
    kind: str
    max_iterations: int = 200
    reset_period: int | None = None
    step_mode: str = "optimal_line_search"
    decay_a: float | None = None
    decay_gamma: float = 1.0
    seed: int = 0
    estimator: str | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"unknown step mode {self.step_mode!r}")
        if self.kind == "stoch_cg" and self.step_mode != "optimal_line_search":
            raise ValueError("stoch_cg conjugates against the J p of the previous line "
                             "search, so it needs step_mode 'optimal_line_search'")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.reset_period is not None and self.reset_period < 1:
            raise ValueError("reset_period must be >= 1")
        if self.decay_a is not None and not self.decay_a > 0:
            raise ValueError("decay_a must be > 0")
        if not 0.5 < self.decay_gamma <= 1.0:
            raise ValueError("decay_gamma must lie in (0.5, 1]")
        if self.estimator is not None and self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    @property
    def effective_estimator(self) -> str:
        if self.estimator is not None:
            return self.estimator
        return "full" if self.kind.startswith("det") else "single"


@dataclass(frozen=True)
class IterationRecord:
    j: int
    experiments_cum: int
    cost_measured: float
    cost_true: float
    epsilon: float | None
    tau: float | None
    reset: bool


@dataclass
class RunTrace:
    config: SolverConfig
    records: list[IterationRecord] = field(default_factory=list)
    final_input: Signal | None = None
    stop_reason: str = ""
    notes: str = ""

    @property
    def initial_cost_true(self) -> float:
        return self.records[0].cost_true

    def experiments_to_cost(self, threshold: float, measured: bool = False) -> int | None:
        """Cumulative experiments at the first record with cost <= threshold."""
        for rec in self.records:
            cost = rec.cost_measured if measured else rec.cost_true
            if cost <= threshold:
                return rec.experiments_cum
        return None


def conjugation_coefficient(Jp_prev: Signal, Jg_new: Signal) -> float:
    """Coefficient tau making g_new + tau p_prev conjugate to p_prev under J^T J.

    Both arguments are measured plant responses; no model knowledge enters.
    """
    denom = Jp_prev.norm_sq()
    if denom <= 0.0:
        raise DegenerateDirectionError("||J p_prev||^2 vanishes")
    return -Jp_prev.dot(Jg_new) / denom


def fletcher_reeves_coefficient(g_new: Signal, g_old: Signal) -> float:
    """Classical ratio ||g_new||^2 / ||g_old||^2; valid for exact gradients only."""
    denom = g_old.norm_sq()
    if denom <= 0.0:
        raise DegenerateDirectionError("||g_old||^2 vanishes")
    return g_new.norm_sq() / denom


def optimal_step(e: Signal, Jp: Signal) -> float:
    """Exact minimizer of ||r - J(f + eps p)||^2 over eps, from measured e and Jp."""
    denom = Jp.norm_sq()
    if denom <= 0.0:
        raise DegenerateDirectionError("||J p||^2 vanishes")
    return e.dot(Jp) / denom


def _over_budget(oracle: PlantOracle, budget: int | None, planned: int, j: int) -> bool:
    """Whether the ``planned`` experiments of iteration j would exceed the budget.

    A budget too small for the first iteration is a usage error, not a stop.
    """
    if budget is None or oracle.snapshot_count() + planned <= budget:
        return False
    if j == 1:
        raise ValueError(f"budget {budget} cannot pay for the {planned} experiments "
                         "of the first iteration")
    return True


def _run_iterative(oracle: PlantOracle, cfg: SolverConfig, budget: int | None) -> RunTrace:
    """Shared loop behind the stochastic/deterministic CG and GD solvers.

    Each iteration plans its experiments once (trial, gradient, ``probe_Jg``,
    ``line_search``); the budget check and the loop body read the same plan.
    """
    is_cg = cfg.kind in ("stoch_cg", "det_cg")
    single = cfg.effective_estimator == "single"
    optimal_mode = cfg.step_mode == "optimal_line_search"
    gradient_experiments = 1 if single else oracle.n_i * oracle.n_o
    mask_rng = stream(cfg.seed, MASK_STREAM)

    trace = RunTrace(config=cfg, stop_reason="max_iterations")
    f = Signal.zeros("input", oracle.N, oracle.n_i)
    p: Signal | None = None
    g_prev: Signal | None = None
    Jp_prev: Signal | None = None
    gain_sq_est = 0.0  # running lower bound on ||J||^2 from probe responses
    cost0_true: float | None = None
    decay_a = cfg.decay_a

    def observe(u: Signal, w: Signal) -> float:
        nonlocal gain_sq_est
        un = u.norm_sq()
        if un > 0.0:
            gain_sq_est = max(gain_sq_est, w.norm_sq() / un)
        return un

    for j in range(1, cfg.max_iterations + 1):
        reset_due = (is_cg and cfg.reset_period is not None and j > 1
                     and (j - 1) % cfg.reset_period == 0)
        conjugate = is_cg and j > 1 and not reset_due
        probe_Jg = cfg.kind == "stoch_cg" and conjugate
        line_search = optimal_mode or decay_a is None
        planned = 1 + gradient_experiments + probe_Jg + line_search
        if _over_budget(oracle, budget, planned, j):
            trace.stop_reason = "budget"
            break

        e, cost_measured = oracle.run_trial(f)
        experiments_at_trial = oracle.snapshot_count()
        cost_true = oracle.true_cost(f)
        if cost0_true is None:
            cost0_true = cost_true
        if cost_true <= COST_TOL * cost0_true:
            trace.records.append(IterationRecord(
                j, experiments_at_trial, cost_measured, cost_true, None, None, False))
            trace.stop_reason = "cost_tol"
            break

        if single:
            g = stochastic_gradient(oracle, e, rng=mask_rng).g_hat
        else:
            g = deterministic_gradient(oracle, e).g_hat

        tau: float | None = None
        reset_flag = False
        if probe_Jg:
            Jg = oracle.probe(g)
            observe(g, Jg)
            denom = Jp_prev.norm_sq()
            if denom > EPS_DENOMINATOR_TOL * p.norm_sq() * gain_sq_est and denom > 0.0:
                tau = conjugation_coefficient(Jp_prev, Jg)
                p = g + tau * p
            else:
                p, reset_flag = g, True
        elif conjugate:  # Fletcher-Reeves
            if g_prev.norm_sq() > 0.0:
                tau = fletcher_reeves_coefficient(g, g_prev)
                p = g + tau * p
            else:
                p, reset_flag = g, True
        else:
            p = g
            reset_flag = is_cg and j > 1  # scheduled reset to the gradient

        eps: float | None
        if line_search:
            Jp = oracle.probe(p)
            pn = observe(p, Jp)
            denom = Jp.norm_sq()
            if denom <= EPS_DENOMINATOR_TOL * pn * gain_sq_est or denom <= 0.0:
                trace.records.append(IterationRecord(
                    j, experiments_at_trial, cost_measured, cost_true, None, tau, reset_flag))
                trace.stop_reason = "degenerate_direction"
                break
            eps = optimal_step(e, Jp)
            Jp_prev = Jp
            if not optimal_mode:
                decay_a = abs(eps)  # anchor the schedule to the first measured step
        else:
            # descend along the (uphill) gradient direction
            eps = -decay_a / float(j) ** cfg.decay_gamma

        f = f + eps * p
        g_prev = g
        trace.records.append(IterationRecord(
            j, experiments_at_trial, cost_measured, cost_true, eps, tau, reset_flag))

    trace.final_input = f
    return trace


def _run_norm_optimal(oracle: PlantOracle, cfg: SolverConfig, system: LiftedSystem,
                      budget: int | None) -> RunTrace:
    """Model-based one-shot update f2 = f1 + (J^T J)^-1 J^T e1.

    Simulation-only reference; requires the true lifted operator.  Rank
    deficiency falls back to the pseudo-inverse and is noted on the trace.
    Spends two trials, which count as one iteration against the budget.
    """
    _over_budget(oracle, budget, planned=2, j=1)
    trace = RunTrace(config=cfg, stop_reason="completed")
    f1 = Signal.zeros("input", oracle.N, oracle.n_i)
    e1, cost1 = oracle.run_trial(f1)
    trace.records.append(IterationRecord(
        1, oracle.snapshot_count(), cost1, oracle.true_cost(f1), 1.0, None, False))
    delta, _, rank, _ = np.linalg.lstsq(system.matrix, e1.data, rcond=1e-12)
    if rank < system.matrix.shape[1]:
        trace.notes = f"rank-deficient model (rank {rank}); pseudo-inverse update"
    f2 = f1 + Signal(delta, "input", oracle.N, oracle.n_i)
    e2, cost2 = oracle.run_trial(f2)
    trace.records.append(IterationRecord(
        2, oracle.snapshot_count(), cost2, oracle.true_cost(f2), None, None, False))
    trace.final_input = f2
    return trace


def run_solver(oracle: PlantOracle, cfg: SolverConfig, budget: int | None = None,
               system: LiftedSystem | None = None) -> RunTrace:
    """Run the solver of ``cfg.kind`` until its stop rule or ``budget`` experiments.

    Stochastic CG spends 3 experiments in its first iteration (trial,
    gradient, J p) and 4 in later ones (plus J g for the measured
    conjugation coefficient); the J p of one iteration is reused by the next.
    Deterministic CG uses full selector-experiment gradients and the
    Fletcher-Reeves ratio; gradient descent uses tau = 0 with optimal or
    decaying steps.  ``system`` is only needed for norm_optimal.  Raises
    ValueError when ``budget`` cannot pay for the first iteration.
    """
    if cfg.kind != "norm_optimal":
        return _run_iterative(oracle, cfg, budget)
    if system is None:
        raise ValueError("norm_optimal requires model access (the lifted system)")
    return _run_norm_optimal(oracle, cfg, system, budget)
