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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gradients import deterministic_gradient, mask_stream, stochastic_gradient
from .lifted import LiftedSystem, Signal, check_integer, check_real
from .oracle import PlantOracle
from .rng import MASK_STREAM, stream

# kind: (default estimator, conjugation rule, the optional settings it reads).  A CG kind
# reads no step_mode: it steps by its measured line search, whose J p stoch_cg conjugates
# against and under which the Fletcher-Reeves ratio holds.  A gradient-descent kind reads
# no estimator: stoch_gd with "full" would be det_gd.
KINDS = {"stoch_cg": ("single", "measured", ("reset_period", "estimator")),
         "det_cg": ("full", "fletcher_reeves", ("reset_period", "estimator")),
         "stoch_gd": ("single", None, ("step_mode",)),
         "det_gd": ("full", None, ("step_mode",)),
         "norm_optimal": (None, None, ())}
SOLVER_KINDS = tuple(KINDS)
STEP_MODES = {"optimal_line_search": (), "decaying": ("decay_a", "decay_gamma")}  # settings read
EPS_DENOMINATOR_TOL = 1e-14  # ||Jp||^2 below this share of ||p||^2 ||J||^2 is degenerate
COST_TOL = 1e-16  # stop once the true cost falls below this share of the first


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
        for what, value, choices in (("solver kind", self.kind, SOLVER_KINDS),
                                     ("step mode", self.step_mode, tuple(STEP_MODES)),
                                     ("estimator", self.estimator, (None, "single", "full"))):
            if value not in choices:  # a tuple, so an unhashable value is no TypeError
                raise ValueError(f"unknown {what} {value!r}")
        reads = KINDS[self.kind][2] + STEP_MODES[self.step_mode]
        for name in ("reset_period", "estimator", "step_mode", "decay_a", "decay_gamma"):
            if name not in reads and getattr(self, name) != self.__dataclass_fields__[name].default:
                raise ValueError(f"neither {self.kind} nor step_mode {self.step_mode!r} reads {name}")
        check_integer("max_iterations", self.max_iterations, 1)
        if self.reset_period is not None:
            check_integer("reset_period", self.reset_period, 2)  # 1 is gradient descent
        check_integer("seed", self.seed, 0)
        if self.decay_a is not None and not 0 < check_real("decay_a", self.decay_a) < math.inf:
            raise ValueError("decay_a must be finite and > 0")
        if not 0.5 < check_real("decay_gamma", self.decay_gamma) <= 1.0:
            raise ValueError("decay_gamma must lie in (0.5, 1]")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


class IterationRecord(NamedTuple):  # a run keeps one record per iteration
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


def _degenerate(u_sq: float, w_sq: float, gain_sq: float) -> bool:
    """Whether a direction of ||u||^2 = u_sq maps to ||J u||^2 = w_sq of (numerically) 0.

    ``gain_sq`` is the loop's running lower bound on ||J||^2.  A direction
    whose u_sq is 0 (u = 0, or its square underflows) is degenerate too.  This
    is the solver's one degeneracy rule: it guards every denominator of the
    conjugation coefficients and of the optimal step.
    """
    return w_sq <= EPS_DENOMINATOR_TOL * u_sq * gain_sq or w_sq <= 0.0 or u_sq <= 0.0


def _conjugation_coefficient(Jp_prev: np.ndarray, Jg_new: np.ndarray,
                             Jp_prev_sq: float) -> float:
    """Coefficient tau making g_new + tau p_prev conjugate to p_prev under J^T J.

    Both arrays are measured plant responses and ``Jp_prev_sq`` is
    ||Jp_prev||^2; no model knowledge enters.  The loop calls this only once
    ``_degenerate`` has ruled out a zero ``Jp_prev_sq``.
    """
    return -float(np.vdot(Jp_prev, Jg_new)) / Jp_prev_sq


def _fletcher_reeves_coefficient(g_new_sq: float, g_old_sq: float) -> float:
    """Classical ratio ||g_new||^2 / ||g_old||^2; valid for exact gradients only.

    Fletcher & Reeves (Comput. J. 7, 1964) derived it for exact line searches,
    the only step det_cg takes.  The loop calls this only with a positive
    ``g_old_sq``: under a line search a gradient of ||g||^2 = 0 gives a p of
    ||p||^2 = 0, which ``_degenerate`` stops in that iteration.
    """
    return g_new_sq / g_old_sq


def _optimal_step(e: np.ndarray, Jp: np.ndarray, Jp_sq: float) -> float:
    """Exact minimizer of ||r - J(f + eps p)||^2 over eps, from measured e and Jp.

    ``Jp_sq`` is ||Jp||^2.  The loop calls this only once ``_degenerate``
    has ruled out a zero ``Jp_sq``.
    """
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
    ``line_search``); the budget check and the loop body read the same plan,
    and the body spends one experiment less when its direction is exactly zero.
    Between iterations the loop carries one search state: the direction p
    and the J p, ||p||^2 and ||J p||^2 of the last line search, which the
    conjugation coefficient reads before this iteration's line search
    replaces them.  f, p and g are the oracle's (n_i, N) arrays; a run's one
    :class:`Signal` is ``RunTrace.final_input``.
    """
    default_estimator, conjugation, _ = KINDS[cfg.kind]
    is_cg = conjugation is not None
    single = (cfg.estimator or default_estimator) == "single"
    optimal_mode = cfg.step_mode == "optimal_line_search"
    gradient_experiments = 1 if single else oracle.n_i * oracle.n_o
    masks = mask_stream(stream(cfg.seed, MASK_STREAM), oracle.n_i, oracle.n_o)

    trace = RunTrace(config=cfg, stop_reason="max_iterations")
    f = np.zeros((oracle.n_i, oracle.N))
    p = Jp = None  # the search state
    p_sq = Jp_sq = 0.0
    g_prev_sq = 0.0  # ||g||^2 of the last gradient, for Fletcher-Reeves
    gain_sq_est = 0.0  # running lower bound on ||J||^2 from probe responses
    cost0_true: float | None = None
    decay_a = cfg.decay_a

    for j in range(1, cfg.max_iterations + 1):
        conjugate = is_cg and j > 1 and (cfg.reset_period is None
                                         or (j - 1) % cfg.reset_period != 0)
        probe_Jg = conjugation == "measured" and conjugate
        line_search = optimal_mode or decay_a is None
        planned = 1 + gradient_experiments + probe_Jg + line_search
        if _over_budget(oracle, budget, planned, j):
            trace.stop_reason = "budget"
            break

        e, cost_measured, cost_true = oracle.run_trial(f)
        row = (j, oracle.snapshot_count(), cost_measured, cost_true)
        if cost0_true is None:
            cost0_true = cost_true
        finite = math.isfinite(cost_measured)
        if not finite or cost_true <= COST_TOL * cost0_true:
            trace.records.append(IterationRecord(*row, None, None, False))
            trace.stop_reason = "cost_tol" if finite else "non_finite"
            break

        if single:
            g = stochastic_gradient(oracle, e, masks)
        else:
            g = deterministic_gradient(oracle, e)
        g_sq = float(np.vdot(g, g)) if is_cg else None

        tau: float | None = None
        if probe_Jg:
            Jg = oracle.probe(g)
            Jg_sq = float(np.vdot(Jg, Jg))
            if g_sq > 0.0:
                gain_sq_est = max(gain_sq_est, Jg_sq / g_sq)
            if not _degenerate(p_sq, Jp_sq, gain_sq_est):
                tau = _conjugation_coefficient(Jp, Jg, Jp_sq)
        elif conjugate:  # Fletcher-Reeves
            tau = _fletcher_reeves_coefficient(g_sq, g_prev_sq)
        p = g if tau is None else g + p * tau

        eps: float | None = None  # stays None when the direction is degenerate
        if line_search:
            p_sq, Jp, Jp_sq = float(np.vdot(p, p)), None, 0.0
            if p_sq > 0.0:  # a zero direction spends no probe, as J 0 = 0
                Jp = oracle.probe(p)
                Jp_sq = float(np.vdot(Jp, Jp))
                gain_sq_est = max(gain_sq_est, Jp_sq / p_sq)
            if probe_Jg and tau is not None and _degenerate(p_sq, Jp_sq, gain_sq_est):
                # the conjugated direction maps to nothing: step along g, whose J g is measured
                p, Jp, p_sq, Jp_sq, tau = g, Jg, g_sq, Jg_sq, None
            if not _degenerate(p_sq, Jp_sq, gain_sq_est):
                eps = _optimal_step(e, Jp, Jp_sq)
                if not optimal_mode:
                    decay_a = abs(eps)  # anchor the schedule to the first measured step
        elif p.any():  # a gradient-descent run descends along the (uphill) gradient
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
    decaying steps.  An iterative run also stops, after recording that
    trial with no step, once the true cost falls to COST_TOL of the first
    (``cost_tol``) or the measured cost is inf or NaN (``non_finite``).
    ``system`` is only needed for norm_optimal.  Raises ValueError when
    ``budget`` cannot pay for the first iteration.
    """
    if cfg.kind != "norm_optimal":
        return _run_iterative(oracle, cfg, budget)
    if system is None:
        raise ValueError("norm_optimal requires model access (the lifted system)")
    return _run_norm_optimal(oracle, cfg, system, budget)
