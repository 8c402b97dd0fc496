"""Variation-of-extremals shooting on the initial costate.

The two-point boundary value problem (x(0) fixed, p(T) pinned to the terminal
cost gradient) is solved as an initial value problem: guess p(0), propagate,
measure the terminal mismatch, estimate the sensitivity of the terminal pair
to the guess, and apply a damped Newton-style correction.

The sensitivities are the linearised state/costate flow along the nominal
run (``tangent_sensitivities``; Bryson & Ho's neighbouring extremals): each
interval's measure is held at its recorded value, so the state path does not
depend on the guess and only the costate tangent moves, with the
measure-weighted dynamics Jacobian.  The per-interval measure LP makes the
control piecewise constant in the guess, so the tangent is exact within a
switching pattern and blind to level switches; the damping factor and
best-iterate tracking absorb that.

``finite_diff_sensitivities`` is the reference the tangent is checked
against: n sequential propagations, one per perturbed costate coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .chattering import GridParams, InfeasibleLevels, LevelCache
from .model import (
    Array,
    ControlProblem,
    NonFiniteEvaluation,
    _central_difference,
    _check_count,
    eval_drift_jacobian,
    eval_dynamics_batch,
    terminal_costate,
    terminal_hessian,
)
from .propagation import TimePartition, Trajectory, propagate_forward

#: refuse the linear correction when its matrix is worse conditioned than
#: this
CONDITION_LIMIT = 1e14

#: per-iteration progress callback: (iteration, residual, cost)
ProgressSink = Callable[[int, float, float], None]


class SingularCorrection(RuntimeError):
    """The sensitivity correction matrix is numerically singular; callers
    fall back to a plain residual gradient step."""


@dataclass(frozen=True)
class ShootingConfig:
    """Outer-loop parameters.

    The defaults aim for stable damped-Newton behavior; nothing here is
    problem specific.
    """

    p0_initial: Array
    gamma: float = 0.5
    epsilon: float = 1e-3
    max_iterations: int = 500

    def __post_init__(self):
        p0 = np.array(self.p0_initial, dtype=float)
        if p0.ndim != 1:
            raise ValueError("p0_initial must be a 1-d array")
        if not np.all(np.isfinite(p0)):
            raise ValueError("p0_initial must be finite")
        p0.setflags(write=False)
        object.__setattr__(self, "p0_initial", p0)
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        _check_count("max_iterations", self.max_iterations, 1)


@dataclass(frozen=True)
class SensitivityEstimate:
    """Jacobians of the terminal state and costate with respect to the
    initial costate guess."""

    P_x: Array
    P_p: Array

    def __post_init__(self):
        for name in ("P_x", "P_p"):
            mat = np.array(getattr(self, name), dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be a square matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} must be finite")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


@dataclass(frozen=True)
class ShootingResult:
    converged: bool
    iterations: int
    residual_history: Array
    trajectory: Optional[Trajectory]
    p0_final: Array
    message: str = ""
    #: one per correction: "newton", or "gradient" after a SingularCorrection
    step_kinds: Tuple[str, ...] = ()
    #: one per correction: the condition number of the correction matrix,
    #: nan where the matrix was refused and the gradient step taken
    condition_numbers: Tuple[float, ...] = ()

    def __post_init__(self):
        hist = np.array(self.residual_history, dtype=float)
        hist.setflags(write=False)
        object.__setattr__(self, "residual_history", hist)
        object.__setattr__(self, "p0_final", np.array(self.p0_final, dtype=float))
        if hist.size != self.iterations:
            raise ValueError("residual_history length must equal iterations")

    @property
    def residual(self) -> float:
        return float(np.min(self.residual_history)) if self.residual_history.size else np.inf


def finite_diff_sensitivities(
    problem: ControlProblem,
    partition: TimePartition,
    p0: Array,
    delta_p: float,
    grid_params: GridParams = GridParams(),
    nominal: Optional[Trajectory] = None,
) -> SensitivityEstimate:
    """One-sided difference Jacobians from n perturbed propagations, one per
    costate coordinate in order, plus the nominal run (reused when supplied).
    The first failing perturbation raises, with its ``perturbation_index``."""
    if not delta_p > 0:
        raise ValueError("delta_p must be positive")
    p0 = np.asarray(p0, dtype=float)
    n = problem.state_dim
    if nominal is None:
        nominal = propagate_forward(problem, partition, p0, grid_params)
    x_T, p_T = nominal.x[-1], nominal.p[-1]
    P_x = np.empty((n, n))
    P_p = np.empty((n, n))
    for j in range(n):
        p0_j = np.array(p0)
        p0_j[j] += delta_p
        try:
            perturbed = propagate_forward(problem, partition, p0_j, grid_params)
        except (NonFiniteEvaluation, InfeasibleLevels) as err:
            tagged = type(err)(f"{err} [perturbation {j}]")
            tagged.perturbation_index = j
            raise tagged from err
        P_x[:, j] = (perturbed.x[-1] - x_T) / delta_p
        P_p[:, j] = (perturbed.p[-1] - p_T) / delta_p
    return SensitivityEstimate(P_x, P_p)


def tangent_sensitivities(
    problem: ControlProblem, partition: TimePartition, nominal: Trajectory
) -> SensitivityEstimate:
    """Jacobians of the terminal pair from the variational equations along
    ``nominal``, in one pass over its recorded rows: no level generation,
    no measure LP, no propagation.

    Each interval's measure (its recorded support levels and weights) is
    held fixed.  Then the state path does not depend on p0 and x_0 is fixed, so
    ``P_x`` is exactly 0.  H is affine in p, so the costate step's
    derivative in p is ``I - dt F_x^T`` with ``F_x = sum_k a_k df/dx``; the
    tangent starts at I and ``P_p`` is its terminal value.  With a
    ``drift_jacobian`` hook ``F_x`` is that Jacobian, whatever the measure;
    otherwise it is a central difference of the dynamics at the support
    levels.

    The tangent does not see level switches: a change of p0 that moves an
    interval's argmin changes the terminal pair in a way it misses.
    ``ValueError`` unless ``nominal`` ran on ``partition``'s times, bit for bit.
    """
    if nominal.times.tobytes() != partition.times.tobytes():
        raise ValueError("nominal was run on another partition: its times differ")
    n = problem.state_dim
    dp = np.eye(n)
    off = nominal.offsets.tolist()
    for i, (t, dt) in enumerate(zip(nominal.times.tolist(), partition.deltas.tolist())):
        if problem.drift_jacobian is not None:
            F_xT = eval_drift_jacobian(problem, t, nominal.x[i]).T
        else:
            levels = nominal.support_levels[off[i]:off[i + 1]]
            weights = nominal.support_weights[off[i]:off[i + 1]]
            # row j is d/dx_j of the measure-weighted dynamics: F_x^T
            F_xT = _central_difference(
                lambda x: weights @ eval_dynamics_batch(problem, t, x, levels), nominal.x[i]
            )
        dp = dp - dt * (F_xT @ dp)
    return SensitivityEstimate(np.zeros((n, n)), dp)


def update_initial_costate(
    p0: Array,
    sens: SensitivityEstimate,
    p_T: Array,
    x_T: Array,
    problem: ControlProblem,
    gamma: float,
) -> Tuple[Array, float]:
    """One correction of the initial costate guess:

        p0 <- p0 + gamma * (Hess(psi)(x_T) P_x - P_p)^-1 (p_T - dpsi/dx(x_T))

    solved densely and unregularized.  Returns the new guess and the
    condition number of the correction matrix.  Raises
    ``SingularCorrection`` when the condition number is not finite or
    exceeds ``CONDITION_LIMIT``.
    """
    p0 = np.asarray(p0, dtype=float)
    residual = p_T - terminal_costate(problem, x_T)
    M = terminal_hessian(problem, x_T) @ sens.P_x - sens.P_p
    try:
        cond = float(np.linalg.cond(M))
    except np.linalg.LinAlgError:  # pragma: no cover - cond rarely fails
        cond = np.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularCorrection(
            f"correction matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    step = np.linalg.solve(M, residual)
    return p0 + gamma * step, cond


def solve(
    problem: ControlProblem,
    partition: TimePartition,
    config: ShootingConfig,
    grid_params: GridParams = GridParams(),
    progress: Optional[ProgressSink] = None,
) -> ShootingResult:
    """Iterate propagate / sensitivities / correct until the terminal costate
    matches the terminal cost gradient within ``config.epsilon`` or the
    iteration budget runs out.  Returns the best-residual iterate either way.

    The loop is deterministic, so a guess equal, bit for bit, to an earlier
    iterate's would repeat the same cycle of iterates forever: the run stops
    before propagating it, with ``converged=False`` and a message naming
    the repeated iteration and the cycle length.

    Infeasible level generation ends the run with ``converged=False`` and a
    diagnostic message instead of raising; non-finite evaluations propagate.

    Within one switching pattern the state path does not depend on the
    guess, so later iterations start interval after interval from the same
    states: the propagations share one ``chattering.LevelCache`` with a
    memo, which lives as long as this call, and skip the level work that an
    earlier iteration did at the same interval and state.
    """
    p0 = np.array(config.p0_initial, dtype=float)
    history: List[float] = []
    step_kinds: List[str] = []
    condition_numbers: List[float] = []
    best_residual = np.inf
    best_trajectory: Optional[Trajectory] = None
    best_p0 = np.array(p0)
    converged = False
    message = ""
    # the iteration that propagated each guess, by the guess's bytes
    seen: Dict[bytes, int] = {}
    cache = LevelCache(problem, grid_params)
    cache.memo = {}
    for _ in range(config.max_iterations):
        iteration = len(history) + 1
        earlier = seen.get(p0.tobytes())
        if earlier is not None:
            message = (
                f"the guess for iteration {iteration} repeats iteration {earlier}: "
                f"the iterates cycle with length {iteration - earlier}"
            )
            break
        seen[p0.tobytes()] = iteration
        try:
            trajectory = propagate_forward(problem, partition, p0, grid_params, cache=cache)
        except InfeasibleLevels as err:
            message = f"level generation became infeasible: {err}"
            break
        x_T, p_T = trajectory.x[-1], trajectory.p[-1]
        residual = float(np.linalg.norm(p_T - terminal_costate(problem, x_T)))
        history.append(residual)
        if residual < best_residual:
            best_residual = residual
            best_trajectory = trajectory
            best_p0 = np.array(p0)
        if progress is not None:
            progress(len(history), residual, trajectory.accumulated_cost)
        if residual < config.epsilon:
            converged = True
            break
        if len(history) >= config.max_iterations:
            break
        sens = tangent_sensitivities(problem, partition, trajectory)
        try:
            p0, cond = update_initial_costate(p0, sens, p_T, x_T, problem, config.gamma)
            step_kinds.append("newton")
            condition_numbers.append(cond)
        except SingularCorrection:
            # plain residual gradient step keeps the loop alive
            p0 = p0 - config.gamma * (p_T - terminal_costate(problem, x_T))
            step_kinds.append("gradient")
            condition_numbers.append(float("nan"))
    if not converged and not message:
        message = "iteration budget exhausted before the residual dropped below epsilon"
    return ShootingResult(
        converged=converged,
        iterations=len(history),
        residual_history=np.asarray(history),
        trajectory=best_trajectory,
        p0_final=best_p0,
        message="" if converged else message,
        step_kinds=tuple(step_kinds),
        condition_numbers=tuple(condition_numbers),
    )
