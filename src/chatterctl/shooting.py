"""Variation-of-extremals shooting on the initial costate.

The two-point boundary value problem (x(0) fixed, p(T) pinned to the terminal
cost gradient) is solved as an initial value problem: guess p(0), propagate,
measure the terminal mismatch, estimate the sensitivity of the terminal pair
to the guess, and apply a Newton correction with a monotonicity test.

The sensitivities are the linearised state/costate flow along the nominal
run (``tangent_sensitivities``; Bryson & Ho's neighbouring extremals), from
the problem's hooks alone.  A grid interval's measure is held at its
recorded value; an interval that the priced rows of ``hamiltonian_argmin``
won moves its control by the hook's ``hamiltonian_argmin_jacobian``, and the
costate then bends with the ``hamiltonian_state_hessian``.  Without such
intervals the state path does not depend on the guess and only the costate
tangent moves, with the drift Jacobian.  The per-interval measure LP makes a
grid control piecewise constant in the guess, so the tangent is blind to
level switches; the step rule and best-iterate tracking absorb that.

The step rule (Deuflhard's monotonicity test, "Newton Methods for
Nonlinear Problems", Springer 2004): take the full step, accept the trial
when its residual falls below ``1 - lambda/4`` of the accepted one, else
halve ``lambda`` down to ``ShootingConfig.gamma`` and propagate again.

``finite_diff_sensitivities`` is the reference the tangent is checked
against: its own nominal run and n sequential propagations, one per
perturbed costate coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .chattering import GridParams, InfeasibleLevels, LevelCache
from .model import (
    Array,
    ControlProblem,
    NonFiniteEvaluation,
    _all_finite,
    _check_count,
    _readonly,
    eval_drift_jacobian,
    eval_hamiltonian_argmin_jacobian,
    eval_hamiltonian_state_hessian,
    terminal_costate,
    terminal_hessian,
)
from .propagation import TimePartition, Trajectory, _annotate, propagate_forward

#: refuse the linear correction when its matrix is worse conditioned than
#: this
CONDITION_LIMIT = 1e14


class SingularCorrection(RuntimeError):
    """The sensitivity correction matrix is numerically singular; callers
    fall back to a plain residual gradient step."""


@dataclass(frozen=True)
class ShootingConfig:
    """Outer-loop parameters.

    Each correction first tries the full step ``lambda = 1`` and halves it
    while the trial fails the monotonicity test; ``gamma`` is the floor of
    ``lambda``, and a trial at the floor is accepted whatever its residual.
    So ``gamma = 1`` always takes the full step.  Nothing here is problem
    specific.
    """

    p0_initial: Array
    gamma: float = 0.5
    epsilon: float = 1e-3
    max_iterations: int = 500

    def __post_init__(self):
        p0 = _readonly(self.p0_initial)
        if p0.ndim != 1:
            raise ValueError("p0_initial must be a 1-d array")
        if not _all_finite(p0):
            raise ValueError("p0_initial must be finite")
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
            mat = _readonly(getattr(self, name))
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be a square matrix")
            if not _all_finite(mat):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, mat)


@dataclass(frozen=True)
class ShootingResult:
    converged: bool
    residual_history: Array
    #: one per iteration: the accumulated cost of its propagation
    cost_history: Array
    trajectory: Optional[Trajectory]
    p0_final: Array
    message: str = ""
    #: one per correction: "newton", "gradient" after a SingularCorrection,
    #: or "rejected" for a trial that failed the monotonicity test
    step_kinds: Tuple[str, ...] = ()
    #: one per correction: the condition number of the correction matrix,
    #: nan where the matrix was refused and the gradient step taken
    condition_numbers: Tuple[float, ...] = ()
    #: one per correction: its step length lambda
    step_lengths: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "residual_history", _readonly(self.residual_history))
        object.__setattr__(self, "cost_history", _readonly(self.cost_history))
        object.__setattr__(self, "p0_final", _readonly(self.p0_final))

    @property
    def iterations(self) -> int:
        """The number of propagations, one residual each."""
        return self.residual_history.size

    @property
    def residual(self) -> float:
        return float(np.min(self.residual_history)) if self.residual_history.size else np.inf


def finite_diff_sensitivities(
    problem: ControlProblem,
    partition: TimePartition,
    p0: Array,
    delta_p: float,
    grid_params: GridParams = GridParams(),
) -> SensitivityEstimate:
    """One-sided difference Jacobians from n + 1 propagations: the nominal
    run from ``p0``, then one per costate coordinate in order.  The first
    failing perturbation raises, with its ``perturbation_index`` besides
    the ``interval_index`` the propagation tagged."""
    if not delta_p > 0:
        raise ValueError("delta_p must be positive")
    p0 = np.asarray(p0, dtype=float)
    n = problem.state_dim
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
            raise _annotate(err, f"perturbation {j}", perturbation_index=j)
        P_x[:, j] = (perturbed.x[-1] - x_T) / delta_p
        P_p[:, j] = (perturbed.p[-1] - p_T) / delta_p
    return SensitivityEstimate(P_x, P_p)


def tangent_sensitivities(problem: ControlProblem, nominal: Trajectory) -> SensitivityEstimate:
    """Jacobians of the terminal pair from the variational equations along
    ``nominal``, in one pass over its recorded rows: no level generation,
    no measure LP, no propagation, no difference.  The tangent carries the
    state and costate perturbations ``(dx, dp)``, from ``(0, I)``; its
    terminal value is ``(P_x, P_p)``.

    A grid interval's measure (its recorded support levels and weights) is
    held fixed.  While ``dx`` is 0 the state path does not depend on p0,
    and H is affine in p, so the costate step's derivative is ``I - dt
    J^T`` with ``J`` the ``drift_jacobian``, whatever the measure.  A
    problem without a priced interval keeps ``P_x`` exactly 0.

    At an interval that the priced rows won alone (a support of one row,
    listed in ``nominal.priced_ranges``), the control moves: ``du = D_x dx
    + D_p dp`` with ``[D_x | D_p]`` the ``hamiltonian_argmin_jacobian`` at
    that row over the ranges it was priced on.  Once the control has moved,
    there and at every later interval the state takes ``dx + dt (J dx + B^T
    du)`` and the costate ``dp - dt (J^T dp + H_xx dx + H_xu du)``, with
    ``[H_xx | H_xu]`` the ``hamiltonian_state_hessian`` rows weighted by the
    support.  Each hook is read once per interval, for all columns at once.

    The tangent does not see level switches: a change of p0 that moves a
    grid interval's argmin changes the terminal pair in a way it misses.
    Where a priced row only ties a grid level, ``_price`` keeps the grid
    measure, so the tangent holds that interval's control and is one-sided
    there, although the hook's minimizer moves with p0 (on the priced
    tanks, ``P_x`` is 3.6 % off finite differences at ``delta_p`` 1e-4).
    The interval lengths are those of ``nominal.times``.  A hook's
    ``ValueError`` or ``NonFiniteEvaluation`` is tagged with its
    ``interval_index``, as in ``propagate_forward``.
    """
    n = problem.state_dim
    B, off, priced = problem.control_matrix, nominal.offsets.tolist(), nominal.priced_ranges
    # a grid interval holds its control: du = 0 there
    dx, dp, held = np.zeros((n, n)), np.eye(n), np.zeros((problem.control_dim, n))
    # dx is exactly 0 until the first priced interval that moves the control
    moved = False
    for i, (t, dt) in enumerate(zip(nominal.times.tolist(), np.diff(nominal.times).tolist())):
        x, p = nominal.x[i], nominal.p[i]
        a, b = off[i], off[i + 1]
        # the ranges of an interval that the priced rows won alone
        ranges = priced.get(i) if b - a == 1 else None
        try:
            J, du = eval_drift_jacobian(problem, t, x), held
            if ranges is not None:
                D = eval_hamiltonian_argmin_jacobian(problem, t, x, p, *ranges, nominal.support_levels[a])
                du = D[:, :n] @ dx + D[:, n:] @ dp
                moved = moved or bool(du.any())
            if moved:
                rows = eval_hamiltonian_state_hessian(problem, t, x, p, nominal.support_levels[a:b])
                S = (nominal.support_weights[a:b] @ rows.reshape(b - a, -1)).reshape(rows.shape[1:])
                curvature = S[:, :n] @ dx + S[:, n:] @ du
        except (NonFiniteEvaluation, ValueError) as err:
            raise _annotate(err, f"interval {i}, t={t}", interval_index=i)
        if not moved:
            dp = dp - dt * (J.T @ dp)
            continue
        dx, dp = dx + dt * (J @ dx + B.T @ du), dp - dt * (J.T @ dp + curvature)
    return SensitivityEstimate(dx, dp)


def update_initial_costate(
    sens: SensitivityEstimate, mismatch: Array, x_T: Array, problem: ControlProblem
) -> Tuple[Array, float]:
    """The Newton step of the initial costate guess,

        (Hess(psi)(x_T) P_x - P_p)^-1 mismatch,  mismatch = p_T - dpsi/dx(x_T),

    solved densely and unregularized, and the condition number of its
    matrix.  Raises ``SingularCorrection`` when the condition number is not
    finite or exceeds ``CONDITION_LIMIT``.  A ``P_x`` that is exactly 0 (no
    priced interval moved the state) needs no terminal Hessian.
    """
    if sens.P_x.any():
        M = terminal_hessian(problem, x_T) @ sens.P_x - sens.P_p
    else:
        M = -sens.P_p
    try:
        cond = float(np.linalg.cond(M))
    except np.linalg.LinAlgError:  # pragma: no cover - cond rarely fails
        cond = np.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularCorrection(
            f"correction matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    return np.linalg.solve(M, mismatch), cond


def solve(
    problem: ControlProblem,
    partition: TimePartition,
    config: ShootingConfig,
    grid_params: GridParams = GridParams(),
) -> ShootingResult:
    """Iterate propagate / sensitivities / correct until the terminal costate
    matches the terminal cost gradient within ``config.epsilon`` or the
    iteration budget runs out.  Returns the best-residual iterate either way.
    Every propagation counts as one iteration.

    Each accepted iterate gets its tangent and its Newton step once (the
    gradient step ``-mismatch`` after a ``SingularCorrection``); every trial
    steps from it by ``lambda`` times that step, ``lambda = 1`` first.  The
    trial is accepted when its residual is below ``1 - lambda/4`` of the
    accepted one, or when ``lambda`` is at its floor ``config.gamma``;
    otherwise it is recorded as "rejected", ``lambda`` halves (to no less
    than the floor) and the next trial steps from the same accepted iterate,
    at the cost of one propagation.

    The loop is deterministic, and an accepted iterate fixes everything
    after it: a guess equal, bit for bit, to an earlier accepted iterate's,
    with a known residual that the test would accept again, would repeat the
    same cycle of iterates forever.  The run stops before propagating it,
    with ``converged=False`` and a message naming the repeated iteration and
    the cycle length.

    Infeasible level generation ends the run with ``converged=False`` and a
    diagnostic message instead of raising; non-finite evaluations propagate.

    Within one switching pattern of a problem without priced intervals the
    state path does not depend on the guess, so later iterations start
    interval after interval from the same states: the propagations share
    one ``chattering.LevelCache`` with a memo, which lives as long as this
    call, and skip the level work that an earlier iteration did at the same
    interval and state.
    """
    p0 = np.array(config.p0_initial, dtype=float)
    history: List[float] = []
    costs: List[float] = []
    step_kinds: List[str] = []
    condition_numbers: List[float] = []
    step_lengths: List[float] = []
    best_residual = np.inf
    best_trajectory: Optional[Trajectory] = None
    best_p0 = np.array(p0)
    converged = False
    message = ""
    # the accepted iterate that the trials step from (its guess, residual
    # and correction; the first run is always accepted) and the next trial's
    # step length
    base_residual, step_length = np.inf, 1.0
    # the iteration and residual of each accepted guess, by the guess's bytes
    seen: Dict[bytes, Tuple[int, float]] = {}
    cache = LevelCache(problem, grid_params)
    cache.memo = {}

    def accepts(residual: float) -> bool:
        return step_length <= config.gamma or residual < (1.0 - step_length / 4.0) * base_residual

    for _ in range(config.max_iterations):
        iteration = len(history) + 1
        earlier = seen.get(p0.tobytes())
        if earlier is not None and accepts(earlier[1]):
            message = (
                f"the guess for iteration {iteration} repeats iteration {earlier[0]}: "
                f"the iterates cycle with length {iteration - earlier[0]}"
            )
            break
        try:
            trajectory = propagate_forward(problem, partition, p0, grid_params, cache=cache)
        except InfeasibleLevels as err:
            message = f"level generation became infeasible: {err}"
            break
        x_T, p_T = trajectory.x[-1], trajectory.p[-1]
        mismatch = p_T - terminal_costate(problem, x_T)
        residual = float(np.linalg.norm(mismatch))
        history.append(residual)
        costs.append(trajectory.accumulated_cost)
        if residual < best_residual:
            best_residual = residual
            best_trajectory = trajectory
            best_p0 = np.array(p0)
        if residual < config.epsilon:
            converged = True
            break
        accepted = accepts(residual)
        if accepted:
            seen[p0.tobytes()] = (iteration, residual)
            base_p0, base_residual, step_length = p0, residual, 1.0
        else:
            step_kinds[-1] = "rejected"
            step_length = max(0.5 * step_length, config.gamma)
        if len(history) >= config.max_iterations:
            break
        if accepted:
            sens = tangent_sensitivities(problem, trajectory)
            try:
                direction, cond = update_initial_costate(sens, mismatch, x_T, problem)
                kind = "newton"
            except SingularCorrection:
                # plain residual gradient step keeps the loop alive
                direction, kind, cond = -mismatch, "gradient", float("nan")
        p0 = base_p0 + step_length * direction
        step_kinds.append(kind)
        condition_numbers.append(cond)
        step_lengths.append(step_length)
    if not converged and not message:
        message = "iteration budget exhausted before the residual dropped below epsilon"
    return ShootingResult(
        converged=converged,
        residual_history=np.asarray(history),
        cost_history=np.asarray(costs),
        trajectory=best_trajectory,
        p0_final=best_p0,
        message="" if converged else message,
        step_kinds=tuple(step_kinds),
        condition_numbers=tuple(condition_numbers),
        step_lengths=tuple(step_lengths),
    )
