"""Experiment-efficient conjugate-gradient learning control for MIMO LTI plants."""

from .gradients import (
    BernoulliMask,
    ChannelMixer,
    GradientEstimate,
    deterministic_gradient,
    draw_mask,
    stochastic_gradient,
)
from .lifted import (
    LiftedSystem,
    LiftingError,
    Signal,
    StateSpace,
    TimeReversal,
    adjoint_apply,
    apply,
    lift,
    load_system,
    markov_parameters,
    save_system,
    time_reverse,
)
from .defaults import default_noise_sigma
from .oracle import NoiseModel, PlantOracle
from .solvers import (
    DegenerateDirectionError,
    IterationRecord,
    RunTrace,
    SolverConfig,
    conjugation_coefficient,
    fletcher_reeves_coefficient,
    optimal_step,
    run_solver,
)
from .sysgen import generate_system, make_step_disturbance

__version__ = "0.1.0"

__all__ = [
    "BernoulliMask",
    "ChannelMixer",
    "DegenerateDirectionError",
    "GradientEstimate",
    "IterationRecord",
    "LiftedSystem",
    "LiftingError",
    "NoiseModel",
    "PlantOracle",
    "RunTrace",
    "Signal",
    "SolverConfig",
    "StateSpace",
    "TimeReversal",
    "adjoint_apply",
    "apply",
    "conjugation_coefficient",
    "default_noise_sigma",
    "deterministic_gradient",
    "draw_mask",
    "fletcher_reeves_coefficient",
    "generate_system",
    "lift",
    "load_system",
    "make_step_disturbance",
    "markov_parameters",
    "optimal_step",
    "run_solver",
    "save_system",
    "stochastic_gradient",
    "time_reverse",
]
