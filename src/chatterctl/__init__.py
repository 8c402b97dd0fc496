"""Chattering-based Hamiltonian optimal control.

A continuous optimal control problem is relaxed into a sequence of
per-interval linear programs over chattering measures; state and costate are
propagated across intervals, and the unknown initial costate is recovered by
a variation-of-extremals shooting loop.
"""

from .chattering import (
    EmptyGrid,
    GridParams,
    InfeasibleLevels,
    LevelGrid,
    solve_measure_lp,
)
from .model import (
    ControlProblem,
    NonFiniteEvaluation,
    eval_hamiltonian,
    grad_h_state,
    terminal_costate,
    terminal_hessian,
)
from .problems import (
    ConfigError,
    DemandModel,
    build_lqr,
    build_supply_chain,
    lqr_analytic_solution,
    synthetic_demand,
)
from .propagation import (
    TimePartition,
    Trajectory,
    accumulate_cost,
    load_replay_file,
    propagate_forward,
    replay_measurement_source,
    step_costate,
    step_state,
)
from .shooting import (
    SensitivityEstimate,
    ShootingConfig,
    ShootingResult,
    SingularCorrection,
    finite_diff_sensitivities,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControlProblem",
    "DemandModel",
    "EmptyGrid",
    "GridParams",
    "InfeasibleLevels",
    "LevelGrid",
    "NonFiniteEvaluation",
    "SensitivityEstimate",
    "ShootingConfig",
    "ShootingResult",
    "SingularCorrection",
    "TimePartition",
    "Trajectory",
    "accumulate_cost",
    "build_lqr",
    "build_supply_chain",
    "eval_hamiltonian",
    "finite_diff_sensitivities",
    "grad_h_state",
    "load_replay_file",
    "lqr_analytic_solution",
    "propagate_forward",
    "replay_measurement_source",
    "solve",
    "solve_measure_lp",
    "step_costate",
    "step_state",
    "synthetic_demand",
    "terminal_costate",
    "terminal_hessian",
]
