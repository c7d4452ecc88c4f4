"""Experiment-efficient conjugate-gradient learning control for MIMO LTI plants."""

from .gradients import deterministic_gradient, stochastic_gradient
from .lifted import (
    LiftedSystem,
    Signal,
    StateSpace,
    lift,
    load_system,
    markov_parameters,
    save_system,
)
from .defaults import default_noise_sigma
from .oracle import NoiseModel, PlantOracle
from .solvers import (
    IterationRecord,
    RunTrace,
    SolverConfig,
    run_solver,
)
from .sysgen import generate_system, make_step_disturbance

__version__ = "0.1.0"

__all__ = [
    "IterationRecord",
    "LiftedSystem",
    "NoiseModel",
    "PlantOracle",
    "RunTrace",
    "Signal",
    "SolverConfig",
    "StateSpace",
    "default_noise_sigma",
    "deterministic_gradient",
    "generate_system",
    "lift",
    "load_system",
    "make_step_disturbance",
    "markov_parameters",
    "run_solver",
    "save_system",
    "stochastic_gradient",
]
