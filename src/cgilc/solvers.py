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
from .lifted import LiftedSystem, Signal, check_integer, check_real
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
        if self.step_mode != "decaying" and (self.decay_a is not None or self.decay_gamma != 1):
            raise ValueError("decay_a and decay_gamma are read only under step_mode 'decaying'")
        if self.reset_period is not None and self.kind not in ("stoch_cg", "det_cg"):
            raise ValueError(f"reset_period is read only by the CG kinds, not {self.kind}")
        if self.kind == "norm_optimal" and (self.step_mode != "optimal_line_search" or self.estimator):
            raise ValueError("norm_optimal reads no step_mode, decay, estimator or reset_period")
        check_integer("max_iterations", self.max_iterations, 1)
        if self.reset_period is not None:
            check_integer("reset_period", self.reset_period, 1)
        check_integer("seed", self.seed, 0)
        if self.decay_a is not None and not check_real("decay_a", self.decay_a) > 0:
            raise ValueError("decay_a must be > 0")
        if not 0.5 < check_real("decay_gamma", self.decay_gamma) <= 1.0:
            raise ValueError("decay_gamma must lie in (0.5, 1]")
        if self.estimator is not None and self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True, slots=True)  # slots: a run keeps one record per iteration
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

    def experiments_to_cost(self, threshold: float, measured: bool = False) -> int | None:
        """Cumulative experiments at the first record with cost <= threshold."""
        for rec in self.records:
            cost = rec.cost_measured if measured else rec.cost_true
            if cost <= threshold:
                return rec.experiments_cum
        return None


def conjugation_coefficient(Jp_prev: np.ndarray, Jg_new: np.ndarray,
                            Jp_prev_sq: float) -> float:
    """Coefficient tau making g_new + tau p_prev conjugate to p_prev under J^T J.

    Both arrays are measured plant responses and ``Jp_prev_sq`` is
    ||Jp_prev||^2; no model knowledge enters.
    """
    if Jp_prev_sq <= 0.0:
        raise DegenerateDirectionError("||J p_prev||^2 vanishes")
    return -float(np.vdot(Jp_prev, Jg_new)) / Jp_prev_sq


def fletcher_reeves_coefficient(g_new_sq: float, g_old_sq: float) -> float:
    """Classical ratio ||g_new||^2 / ||g_old||^2; valid for exact gradients only."""
    if g_old_sq <= 0.0:
        raise DegenerateDirectionError("||g_old||^2 vanishes")
    return g_new_sq / g_old_sq


def optimal_step(e: np.ndarray, Jp: np.ndarray, Jp_sq: float) -> float:
    """Exact minimizer of ||r - J(f + eps p)||^2 over eps, from measured e and Jp.

    ``Jp_sq`` is ||Jp||^2.
    """
    if Jp_sq <= 0.0:
        raise DegenerateDirectionError("||J p||^2 vanishes")
    return float(np.vdot(e, Jp)) / Jp_sq


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
    Between iterations the loop carries one search state: the direction p
    and the J p, ||p||^2 and ||J p||^2 of the last line search, which the
    conjugation coefficient reads before this iteration's line search
    replaces them.  f, p and g are the oracle's (n_i, N) arrays; a run's one
    :class:`Signal` is ``RunTrace.final_input``.
    """
    is_cg = cfg.kind in ("stoch_cg", "det_cg")
    estimator = cfg.estimator or ("full" if cfg.kind.startswith("det") else "single")
    single = estimator == "single"
    optimal_mode = cfg.step_mode == "optimal_line_search"
    gradient_experiments = 1 if single else oracle.n_i * oracle.n_o
    mask_rng = stream(cfg.seed, MASK_STREAM)

    trace = RunTrace(config=cfg, stop_reason="max_iterations")
    f = np.zeros((oracle.n_i, oracle.N))
    p = Jp = None  # the search state
    p_sq = Jp_sq = 0.0
    g_prev_sq = 0.0  # ||g||^2 of the last gradient, for Fletcher-Reeves
    gain_sq_est = 0.0  # running lower bound on ||J||^2 from probe responses
    cost0_true: float | None = None
    decay_a = cfg.decay_a

    def observe(u_sq: float, w_sq: float):
        """Raise the gain estimate by a probe of ||u||^2 = u_sq and ||J u||^2 = w_sq."""
        nonlocal gain_sq_est
        if u_sq > 0.0:
            gain_sq_est = max(gain_sq_est, w_sq / u_sq)

    def degenerate(u_sq: float, w_sq: float) -> bool:
        """Whether a direction of ||u||^2 = u_sq maps to ||J u||^2 = w_sq of (numerically) 0."""
        return w_sq <= EPS_DENOMINATOR_TOL * u_sq * gain_sq_est or w_sq <= 0.0

    for j in range(1, cfg.max_iterations + 1):
        conjugate = is_cg and j > 1 and (cfg.reset_period is None
                                         or (j - 1) % cfg.reset_period != 0)
        probe_Jg = cfg.kind == "stoch_cg" and conjugate
        line_search = optimal_mode or decay_a is None
        planned = 1 + gradient_experiments + probe_Jg + line_search
        if _over_budget(oracle, budget, planned, j):
            trace.stop_reason = "budget"
            break

        e, cost_measured, cost_true = oracle.run_trial(f)
        row = (j, oracle.snapshot_count(), cost_measured, cost_true)
        if cost0_true is None:
            cost0_true = cost_true
        if cost_true <= COST_TOL * cost0_true:
            trace.records.append(IterationRecord(*row, None, None, False))
            trace.stop_reason = "cost_tol"
            break

        if single:
            g = stochastic_gradient(oracle, e, rng=mask_rng)
        else:
            g = deterministic_gradient(oracle, e)
        g_sq = float(np.vdot(g, g)) if is_cg else None

        tau: float | None = None
        if probe_Jg:
            Jg = oracle.probe(g)
            Jg_sq = float(np.vdot(Jg, Jg))
            observe(g_sq, Jg_sq)
            if not degenerate(p_sq, Jp_sq):
                tau = conjugation_coefficient(Jp, Jg, Jp_sq)
        elif conjugate and g_prev_sq > 0.0:  # Fletcher-Reeves
            tau = fletcher_reeves_coefficient(g_sq, g_prev_sq)
        p = g if tau is None else g + p * tau

        eps: float | None = None  # stays None when the direction is degenerate
        if line_search:
            Jp = oracle.probe(p)
            p_sq, Jp_sq = float(np.vdot(p, p)), float(np.vdot(Jp, Jp))
            observe(p_sq, Jp_sq)
            if probe_Jg and tau is not None and degenerate(p_sq, Jp_sq):
                # the conjugated direction maps to nothing: step along g, whose J g is measured
                p, Jp, p_sq, Jp_sq, tau = g, Jg, g_sq, Jg_sq, None
            if not degenerate(p_sq, Jp_sq):
                eps = optimal_step(e, Jp, Jp_sq)
                if not optimal_mode:
                    decay_a = abs(eps)  # anchor the schedule to the first measured step
        else:
            # descend along the (uphill) gradient direction
            eps = -decay_a / float(j) ** cfg.decay_gamma

        # a CG iteration after the first that steps along g is a reset
        trace.records.append(IterationRecord(*row, eps, tau, is_cg and j > 1 and tau is None))
        if eps is None:
            trace.stop_reason = "degenerate_direction"
            break
        f = f + p * eps
        g_prev_sq = g_sq

    trace.final_input = Signal(f, "input", oracle.N, oracle.n_i)
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
    f1 = np.zeros((oracle.n_i, oracle.N))
    e1, cost1, cost1_true = oracle.run_trial(f1)
    trace.records.append(IterationRecord(
        1, oracle.snapshot_count(), cost1, cost1_true, 1.0, None, False))
    delta, _, rank, _ = np.linalg.lstsq(system.matrix, e1.reshape(-1), rcond=1e-12)
    if rank < system.matrix.shape[1]:
        trace.notes = f"rank-deficient model (rank {rank}); pseudo-inverse update"
    f2 = f1 + delta.reshape(f1.shape)
    _, cost2, cost2_true = oracle.run_trial(f2)
    trace.records.append(IterationRecord(
        2, oracle.snapshot_count(), cost2, cost2_true, None, None, False))
    trace.final_input = Signal(f2, "input", oracle.N, oracle.n_i)
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
