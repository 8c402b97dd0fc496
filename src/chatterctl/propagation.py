"""Forward propagation of state and costate across the time partition.

Each interval is one explicit Euler step driven by the chattering measure:
the state moves along the measure-weighted dynamics and the costate against
the measure-weighted Hamiltonian state-gradient, both evaluated at the
interval start.  The recorded trajectory, one point per interval start plus a
terminal point, is the control law the solver ultimately returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import chattering, model
from .chattering import (
    STEP_FEASIBILITY_TOL,
    ChatteringMeasure,
    GridParams,
    InfeasibleLevels,
    LevelGrid,
    LevelMemo,
    solve_measure_lp,
)
from .model import (
    Array,
    ControlProblem,
    NonFiniteEvaluation,
    affine_p_dot_f,
    eval_drift,
    eval_dynamics_batch,
    eval_running_cost_batch,
    eval_terminal_cost,
    grad_h_state,
)

#: an optional measurement source consulted before each interval solve;
#: returning an array replaces the propagated state (open-loop feedback)
MeasurementSource = Callable[[int, float, Array], Optional[Array]]


@dataclass(frozen=True)
class TimePartition:
    """Interval endpoints 0 = t_0 < t_1 < ... < t_I = T."""

    times: Array

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a partition needs at least two time points")
        if not np.all(np.isfinite(times)):
            raise ValueError("partition times must be finite")
        if times[0] != 0.0:
            raise ValueError("partition must start at t=0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("partition times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, horizon: float, intervals: int) -> "TimePartition":
        if intervals < 1:
            raise ValueError("intervals must be >= 1")
        if not np.isfinite(horizon):
            raise ValueError("partition times must be finite")
        if not horizon > 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, horizon, intervals + 1))

    @property
    def deltas(self) -> Array:
        return np.diff(self.times)

    @property
    def intervals(self) -> int:
        return int(self.times.size - 1)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class TrajectoryPoint:
    """One record of the control law: (t_i, x_i, p_i, u_i) plus the measure,
    grid support and Hamiltonian value behind u_i.  The terminal point
    carries no control."""

    t: float
    x: Array
    p: Array
    u: Optional[Array] = None
    measure: Optional[ChatteringMeasure] = None
    grid: Optional[LevelGrid] = None
    h_value: Optional[float] = None

    def __post_init__(self):
        for name in ("x", "p"):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"trajectory point has non-finite {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.u is not None:
            u = np.array(self.u, dtype=float)
            u.setflags(write=False)
            object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class Trajectory:
    """Points at every interval start plus the terminal state/costate, with
    the accumulated discretized cost and the number of state steps that the
    state-box clamp moved by more than ``STEP_FEASIBILITY_TOL``."""

    points: Tuple[TrajectoryPoint, ...]
    accumulated_cost: float
    stage_costs: Array  # sum_k a_k g(t_i, x_i, c_k) * dt_i per interval (relaxed cost)
    clamp_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        stage = np.array(self.stage_costs, dtype=float)
        stage.setflags(write=False)
        object.__setattr__(self, "stage_costs", stage)
        ts = [pt.t for pt in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("trajectory points must be ordered by time")

    @property
    def intervals(self) -> int:
        return len(self.points) - 1

    @property
    def terminal(self) -> TrajectoryPoint:
        return self.points[-1]

    @property
    def times(self) -> Array:
        return np.array([pt.t for pt in self.points])

    def states(self) -> Array:
        return np.stack([pt.x for pt in self.points])

    def costates(self) -> Array:
        return np.stack([pt.p for pt in self.points])

    def controls(self) -> Array:
        return np.stack([pt.u for pt in self.points[:-1]])


def _clamp(problem: ControlProblem, x: Array) -> Tuple[Array, bool]:
    """Clamp ``x`` to the state box; the flag says whether that moved it by
    more than ``STEP_FEASIBILITY_TOL`` (smaller moves are rounding)."""
    clamped = x
    if problem.state_lower is not None:
        clamped = np.maximum(clamped, problem.state_lower)
    if problem.state_upper is not None:
        clamped = np.minimum(clamped, problem.state_upper)
    return clamped, bool(np.any(np.abs(clamped - x) > STEP_FEASIBILITY_TOL))


def step_state(
    problem: ControlProblem, x: Array, measure: ChatteringMeasure, f_vals: Array, dt: float
) -> Tuple[Array, bool]:
    """x_{i+1} = x_i + dt * sum_k a_k f(t_i, x_i, c_k), clamped to the state
    box when bounds exist.

    ``f_vals`` holds the dynamics rows f(t_i, x_i, c_k), one per level of the
    measure.  Returns the next state and whether the clamp moved it by more
    than ``STEP_FEASIBILITY_TOL``.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if f_vals.shape[0] != measure.K:
        raise chattering.DimensionMismatch(
            f"dynamics have {f_vals.shape[0]} rows but measure has {measure.K} weights"
        )
    return _clamp(problem, x + dt * (measure.weights @ f_vals))


def step_costate(
    problem: ControlProblem,
    t: float,
    x: Array,
    p: Array,
    grid: LevelGrid,
    measure: ChatteringMeasure,
    dt: float,
) -> Array:
    """p_{i+1} = p_i - dt * sum_k a_k dH/dx(t_i, x_i, p_i, c_k)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    acc = np.zeros(problem.state_dim)
    for k in measure.support():
        grad = grad_h_state(problem, t, x, p, grid.levels[k])
        acc = acc + measure.weights[k] * grad
    return p - dt * acc


def _support_pair(
    grid: LevelGrid, measure: ChatteringMeasure, support: Array
) -> Tuple[LevelGrid, ChatteringMeasure]:
    """Shrink a grid/measure pair to the measure's ``support`` (the zero-weight
    levels contribute nothing and recording all of them is wasteful)."""
    if support.size == measure.K:
        return grid, measure
    return LevelGrid(grid.levels[support]), ChatteringMeasure(measure.weights[support])


def _annotate(err: Exception, interval: int, t: float) -> Exception:
    tagged = type(err)(f"{err} [interval {interval}, t={t}]")
    tagged.interval_index = interval
    tagged.__cause__ = err
    return tagged


def propagate_forward(
    problem: ControlProblem,
    partition: TimePartition,
    p0: Array,
    grid_params: GridParams = GridParams(),
    measurement_source: Optional[MeasurementSource] = None,
    memo: Optional[LevelMemo] = None,
) -> Trajectory:
    """Run the full per-interval pipeline from (x_0, p0) to the horizon.

    Per interval: build the level grid at the current state, evaluate the
    Hamiltonian at every level, solve the measure LP, reconstruct the
    interval control, then advance state and costate.  The running cost is
    the relaxed one, ``sum_k a_k g(t_i, x_i, c_k)``, accumulated as a
    left-endpoint sum, plus the terminal cost at x_T.

    With a ``measurement_source`` the predicted state may be replaced by an
    injected measurement before each interval solve (open-loop feedback).

    A non-finite evaluation, or a state or costate step that overflows,
    raises ``NonFiniteEvaluation`` tagged with the ``interval_index``.

    ``memo`` is handed to every level generation: propagations that share
    one reuse an interval's level work when they start it from the same
    state (see ``chattering.generate_levels_with_dynamics``).
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (problem.state_dim,):
        raise ValueError(f"p0 must have shape ({problem.state_dim},), got {p0.shape}")
    if not np.all(np.isfinite(p0)):
        raise ValueError("p0 must be finite")
    x, p, cost = np.array(problem.initial_state), np.array(p0), 0.0
    points: List[TrajectoryPoint] = []
    stage_costs: List[float] = []
    clamp_count = 0
    for i, (t, dt) in enumerate(zip(partition.times.tolist(), partition.deltas.tolist())):
        if measurement_source is not None:
            measured = measurement_source(i, t, x)
            if measured is not None:
                measured = np.asarray(measured, dtype=float)
                if measured.shape != (problem.state_dim,) or not np.all(np.isfinite(measured)):
                    msg = f"measured state must be {problem.state_dim} finite values, got {measured.tolist()}"
                    raise _annotate(ValueError(msg), i, t)
                x, _ = _clamp(problem, measured)
        try:
            # one drift evaluation serves level search, filter, sweep and step
            affine = problem.drift is not None
            drift = eval_drift(problem, t, x) if affine else None
            grid, f_vals = chattering.generate_levels_with_dynamics(
                problem, t, x, dt, grid_params, drift, memo
            )
            g_vals = eval_running_cost_batch(problem, t, x, grid.levels)
            if affine:
                h_vals = g_vals + affine_p_dot_f(problem, drift, p, grid.levels)
            else:
                f_vals = eval_dynamics_batch(problem, t, x, grid.levels) if f_vals is None else f_vals
                h_vals = g_vals + f_vals @ p
            if not np.all(np.isfinite(h_vals)):
                raise NonFiniteEvaluation(f"Hamiltonian is non-finite at t={t}")
            measure = solve_measure_lp(h_vals)
            support = measure.support()
            grid_s, measure_s = _support_pair(grid, measure, support)
            # the zero-weight levels add nothing: reduce over the support only
            u = measure_s.weights @ grid_s.levels
            stage = float(measure_s.weights @ g_vals[support]) * dt
            h_value = float(measure_s.weights @ h_vals[support])
            f_support = drift + grid_s.levels @ problem.control_matrix if affine else f_vals[support]
            x_next, clamped = step_state(problem, x, measure_s, f_support, dt)
            p_next = step_costate(problem, t, x, p, grid_s, measure_s, dt)
            if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(p_next))):
                raise NonFiniteEvaluation(f"state or costate step is non-finite at t={t}")
        except (NonFiniteEvaluation, InfeasibleLevels) as err:
            raise _annotate(err, i, t)
        cost += stage
        points.append(TrajectoryPoint(t, x, p, u, measure_s, grid_s, h_value))
        stage_costs.append(stage)
        clamp_count += clamped
        x, p = x_next, p_next
    cost += eval_terminal_cost(problem, x)
    points.append(TrajectoryPoint(float(partition.times[-1]), x, p))
    return Trajectory(tuple(points), cost, np.asarray(stage_costs), clamp_count)


def accumulate_cost(problem: ControlProblem, trajectory: Trajectory) -> float:
    """Recompute the discretized cost from the stored points: left-endpoint
    sum of the relaxed running cost ``sum_k a_k g(t, x, c_k)`` over each
    point's support levels, plus the terminal cost."""
    total = 0.0
    pts = trajectory.points
    for a, b in zip(pts[:-1], pts[1:]):
        # model's binding: a wrapper of this module's one sees only the sweeps
        g = model.eval_running_cost_batch(problem, a.t, a.x, a.grid.levels)
        total += float(a.measure.weights @ g) * (b.t - a.t)
    return total + eval_terminal_cost(problem, pts[-1].x)


def replay_measurement_source(replacements: Mapping[int, Sequence[float]]) -> MeasurementSource:
    """Measurement source that replays recorded states keyed by interval
    index; intervals without an entry keep the propagated prediction."""
    table = {int(k): np.asarray(v, dtype=float) for k, v in replacements.items()}

    def source(i: int, t: float, x_pred: Array) -> Optional[Array]:
        return table.get(i)

    return source


def load_replay_file(path) -> MeasurementSource:
    """Load a JSON replay file mapping interval index to a state vector."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return replay_measurement_source({int(k): v for k, v in raw.items()})
