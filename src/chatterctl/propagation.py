"""Forward propagation of state and costate across the time partition.

Each interval is one explicit Euler step driven by the chattering measure:
the state moves along the measure-weighted dynamics and the costate against
the measure-weighted Hamiltonian state-gradient, both evaluated at the
interval start.  The recorded trajectory, one row per interval start plus a
terminal row, is the control law the solver ultimately returns.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import chattering, model
from .chattering import (
    STEP_FEASIBILITY_TOL,
    TIE_TOL,
    GridParams,
    InfeasibleLevels,
    LevelCache,
    LevelGrid,
    _in_box,
    solve_measure_lp,
)
from .model import (
    Array,
    ControlProblem,
    NonFiniteEvaluation,
    _all_finite,
    _check_count,
    _readonly,
    eval_drift,
    eval_hamiltonian_argmin,
    eval_running_cost_batch,
    eval_terminal_cost,
    grad_h_state,
)
from .model import eval_dynamics_batch  # noqa: F401  unused; perfbench/tracer.py wraps this name

#: an optional measurement source consulted before each interval solve;
#: returning an array replaces the propagated state (open-loop feedback)
MeasurementSource = Callable[[int, float, Array], Optional[Array]]


@dataclass(frozen=True)
class TimePartition:
    """Interval endpoints 0 = t_0 < t_1 < ... < t_I = T."""

    times: Array

    def __post_init__(self):
        times = _readonly(self.times)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a partition needs at least two time points")
        if not np.all(np.isfinite(times)):
            raise ValueError("partition times must be finite")
        if times[0] != 0.0:
            raise ValueError("partition must start at t=0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("partition times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, horizon: float, intervals: int) -> "TimePartition":
        _check_count("intervals", intervals, 1)
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
    """One row (t_i, x_i, p_i, u_i) of a ``Trajectory``, as
    ``Trajectory.points`` hands it out.  The terminal point carries no
    control."""

    t: float
    x: Array
    p: Array
    u: Optional[Array] = None


@dataclass(frozen=True)
class Trajectory:
    """The control law of one run over N intervals, one read-only array per
    quantity: ``times (N+1,)``, states ``x`` and costates ``p (N+1, n)``
    (every interval start plus the terminal pair), controls ``u (N, m)``,
    the Hamiltonian value ``h_values (N,)`` and the relaxed stage cost
    ``stage_costs (N,)`` (``sum_k a_k g(t_i, x_i, c_k) * dt_i``) of every
    interval.

    The measures are stored by their supports in CSR form: interval i spends
    ``support_weights[offsets[i]:offsets[i + 1]]`` of its time at the levels
    in the same rows of ``support_levels (S, m)``.  Also kept: the
    accumulated discretized cost and the number of state steps that the
    state-box clamp moved by more than ``STEP_FEASIBILITY_TOL``.

    ``priced_ranges`` maps each interval whose measure the priced rows of
    ``hamiltonian_argmin`` won to the control ranges ``(lo, hi)`` they were
    priced over, read-only; it is empty for a problem without that hook.
    The shooting tangent reads the hook's ``hamiltonian_argmin_jacobian``
    there.
    """

    times: Array
    x: Array
    p: Array
    u: Array
    h_values: Array
    stage_costs: Array
    offsets: Array
    support_levels: Array
    support_weights: Array
    accumulated_cost: float
    clamp_count: int = 0
    priced_ranges: Mapping[int, Tuple[Array, Array]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("times", "x", "p", "u", "h_values", "stage_costs", "support_levels",
                     "support_weights"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "offsets", _readonly(self.offsets, np.intp))
        times, x, u, off, w = self.times, self.x, self.u, self.offsets, self.support_weights
        N, S = times.size - 1, w.size
        if times.ndim != 1 or N < 1 or np.any(np.diff(times) <= 0.0):
            raise ValueError("a trajectory needs two or more strictly increasing times")
        if x.ndim != 2 or x.shape[0] != N + 1 or self.p.shape != x.shape:
            raise ValueError(f"x and p must both have shape ({N + 1}, n)")
        if u.ndim != 2 or u.shape[0] != N or self.h_values.shape != (N,):
            raise ValueError(f"u must have shape ({N}, m) and h_values ({N},)")
        if self.stage_costs.shape != (N,):
            raise ValueError(f"stage_costs must have shape ({N},)")
        if not (_all_finite(x) and _all_finite(self.p)):
            raise ValueError("trajectory has non-finite x or p")
        if off.shape != (N + 1,) or off[0] != 0 or off[-1] != S or np.any(np.diff(off) < 1):
            raise ValueError("offsets must rise from 0 to the support size, by >= 1 per interval")
        if w.ndim != 1 or self.support_levels.shape != (S, u.shape[1]):
            raise ValueError(f"support_weights must have shape ({S},), support_levels ({S}, m)")
        if not np.all((w >= 0.0) & (w <= 1.0)):
            raise ValueError("support weights must lie in [0, 1]")
        if not np.all(np.abs(np.add.reduceat(w, off[:-1]) - 1.0) <= 1e-12):
            raise ValueError("the support weights of every interval must sum to 1 within 1e-12")
        # one read-only copy per range end for all intervals, handed out by rows
        index, ends = [int(i) for i in self.priced_ranges], list(self.priced_ranges.values())
        lo, hi = _readonly([e[0] for e in ends]), _readonly([e[1] for e in ends])
        m, P = u.shape[1], len(index)
        if any(not 0 <= i < N for i in index) or P and not lo.shape == hi.shape == (P, m):
            raise ValueError(f"priced_ranges needs interval indices below {N} and ({m},) ranges")
        object.__setattr__(self, "priced_ranges", MappingProxyType(dict(zip(index, zip(lo, hi)))))

    @property
    def intervals(self) -> int:
        return int(self.times.size - 1)

    def states(self) -> Array:
        return self.x

    def costates(self) -> Array:
        return self.p

    def controls(self) -> Array:
        return self.u

    @functools.cached_property
    def points(self) -> Tuple[TrajectoryPoint, ...]:
        """The rows as points, one per interval start plus the terminal one;
        built on first access, from views of the columns."""
        rows = [TrajectoryPoint(*row) for row in zip(self.times.tolist(), self.x, self.p, self.u)]
        rows.append(TrajectoryPoint(float(self.times[-1]), self.x[-1], self.p[-1]))
        return tuple(rows)


def _clamp(problem: ControlProblem, x: Array) -> Tuple[Array, bool]:
    """Clamp ``x`` to the state box; the flag says whether that moved it by
    more than ``STEP_FEASIBILITY_TOL`` (smaller moves are rounding)."""
    if not problem.has_state_bounds:
        return x, False
    clamped = x
    if problem.state_lower is not None:
        clamped = np.maximum(clamped, problem.state_lower)
    if problem.state_upper is not None:
        clamped = np.minimum(clamped, problem.state_upper)
    return clamped, bool((np.abs(clamped - x) > STEP_FEASIBILITY_TOL).any())


def step_state(
    problem: ControlProblem, x: Array, weights: Array, f_vals: Array, dt: float
) -> Tuple[Array, bool]:
    """x_{i+1} = x_i + dt * sum_k a_k f(t_i, x_i, c_k), clamped to the state
    box when bounds exist.

    ``weights`` are the measure's weights a_k on its support levels c_k and
    ``f_vals`` the dynamics rows f(t_i, x_i, c_k), one per weight.  Returns
    the next state and whether the clamp moved it by more than
    ``STEP_FEASIBILITY_TOL``.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if f_vals.shape[0] != weights.size:
        raise ValueError(
            f"dynamics have {f_vals.shape[0]} rows but the measure has {weights.size} weights"
        )
    return _clamp(problem, x + dt * (weights @ f_vals))


def step_costate(
    problem: ControlProblem,
    t: float,
    x: Array,
    p: Array,
    levels: Array,
    weights: Array,
    dt: float,
) -> Array:
    """p_{i+1} = p_i - dt * dH/dx(t_i, x_i, p_i), measure-weighted over the
    support ``levels`` and their ``weights`` (as many of each, or
    ``ValueError``): one ``grad_h_state`` call."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if len(levels) != weights.size:
        raise ValueError(
            f"the support has {len(levels)} levels but the measure has {weights.size} weights"
        )
    return p - dt * grad_h_state(problem, t, x, p, levels, weights)


def _annotate(err: Exception, note: str, **indices: int) -> Exception:
    """``err`` with `` [note]`` appended to its message and ``indices`` (such
    as ``interval_index=i``) set on it, besides the ones it already carries:
    a new error of its type caused by ``err``, or ``err`` itself when its
    type takes other constructor arguments."""
    message = f"{err} [{note}]"
    try:
        tagged = type(err)(message)
        tagged.__cause__ = err
    except TypeError:
        err.args = (message,)
        tagged = err
    for name, value in {**vars(err), **indices}.items():
        setattr(tagged, name, value)
    return tagged


def _sweep(
    problem: ControlProblem, t: float, x: Array, levels: Array, p_terms: Tuple[Array, Array]
) -> Tuple[Array, Array]:
    """The running cost and H at every row of ``levels``, with ``p . f(t, x,
    c) = c @ (B p) + drift . p`` from the interval's ``p_terms = (B @ p,
    drift @ p)``: one (K,) matvec and no (K, n) block."""
    g = eval_running_cost_batch(problem, t, x, levels)
    return g, g + (levels @ p_terms[0] + p_terms[1])


def _price(
    problem: ControlProblem, t: float, x: Array, p: Array, dt: float, drift: Array,
    p_terms: Tuple[Array, Array], grid: LevelGrid, h_min: float,
) -> Optional[Tuple[Array, Array, Array]]:
    """The pricing step of one interval: the rows of the problem's
    ``hamiltonian_argmin`` over the grid's ranges that keep the one-step
    state in the state box, with their running costs and Hamiltonian
    values, when the best of them beats the grid minimum ``h_min`` by more
    than ``TIE_TOL``; None otherwise.  ``drift`` and ``p_terms = (B @ p,
    drift @ p)`` are the interval's.

    The rows go through the grid's checks and ``_sweep``.  They never
    join the grid: every grid row is then more than ``TIE_TOL`` above the
    best row, so the measure LP over the priced rows alone is the LP over
    both, in which a priced row within ``TIE_TOL`` of the best shares the
    weight.  A best row that only ties the grid returns None, so a grid
    level within ``TIE_TOL`` of the minimum never gets a twin that shifts
    the weights.
    """
    rows = eval_hamiltonian_argmin(problem, t, x, p, grid.lo, grid.hi)
    if rows.shape[0] == 0:
        return None
    if problem.has_state_bounds:
        inside = _in_box(problem, x + dt * (drift + rows @ problem.control_matrix))
        if not inside.any():
            return None
        rows = rows[inside]
    g, h = _sweep(problem, t, x, rows, p_terms)
    if not _all_finite(h):
        raise NonFiniteEvaluation(f"priced Hamiltonian is non-finite at t={t}")
    # the LP's tie threshold is this same sum, so it stays below every grid row
    if not min(h.tolist()) + TIE_TOL < h_min:
        return None
    return rows, g, h


def propagate_forward(
    problem: ControlProblem,
    partition: TimePartition,
    p0: Array,
    grid_params: GridParams = GridParams(),
    measurement_source: Optional[MeasurementSource] = None,
    cache: Optional[LevelCache] = None,
) -> Trajectory:
    """Run the full per-interval pipeline from (x_0, p0) to the horizon.

    Per interval: build the level grid at the current state, evaluate the
    Hamiltonian at every level, price the problem's ``hamiltonian_argmin``
    rows against the grid minimum when it has that hook (``_price``), solve
    the measure LP over the priced rows when the best wins (recording the
    grid's ranges in ``priced_ranges``), else over the grid, reconstruct
    the interval control, then advance state and costate.  The
    running cost is the relaxed one, ``sum_k a_k g(t_i, x_i, c_k)``,
    accumulated as a left-endpoint sum, plus the terminal cost at x_T.  Each
    interval writes one row of the returned ``Trajectory``.

    With a ``measurement_source`` the predicted state may be replaced by an
    injected measurement before each interval solve (open-loop feedback).

    A non-finite evaluation, or a state or costate step that overflows,
    raises ``NonFiniteEvaluation``; that, ``InfeasibleLevels`` and a hook's
    ``ValueError`` (an output that is not an array of numbers or has the
    wrong shape, or a priced row outside the grid's ranges or its gated
    dimensions' admissible values) are tagged with the ``interval_index``.

    A partition that does not end at ``problem.horizon`` is a
    ``ValueError`` before the first interval.  Every level generation gets
    ``cache`` (a ``chattering.LevelCache`` for ``problem``, by identity, and
    ``grid_params``, by equality, else ``ValueError`` before the first
    interval; one is built when none is given) and starts from the one
    before it.  Propagations that share a cache with a memo reuse an
    interval's level work when they start it from the same state (see
    ``chattering.generate_levels_with_dynamics``).
    """
    p0 = np.asarray(p0, dtype=float)
    n, N = problem.state_dim, partition.intervals
    if p0.shape != (n,):
        raise ValueError(f"p0 must have shape ({n},), got {p0.shape}")
    if not _all_finite(p0):
        raise ValueError("p0 must be finite")
    if partition.horizon != problem.horizon:
        raise ValueError(f"partition ends at t={partition.horizon}, not at the horizon {problem.horizon}")
    xs, ps = np.empty((N + 1, n)), np.empty((N + 1, n))
    us, h_values, stage_costs = np.empty((N, problem.control_dim)), np.empty(N), np.empty(N)
    offsets = np.zeros(N + 1, dtype=np.intp)
    support_levels: List[Array] = []
    support_weights: List[Array] = []
    priced_ranges: Dict[int, Tuple[Array, Array]] = {}
    # one drift evaluation per interval serves level ranges, filter, sweep and step
    priced = problem.hamiltonian_argmin is not None
    B = problem.control_matrix
    if cache is None:
        cache = LevelCache(problem, grid_params)
    elif cache.problem is not problem or cache.params != grid_params:
        raise ValueError("the LevelCache was built for another problem or other GridParams")
    x, p, cost, clamp_count = np.array(problem.initial_state), np.array(p0), 0.0, 0
    for i, (t, dt) in enumerate(zip(partition.times.tolist(), partition.deltas.tolist())):
        if measurement_source is not None:
            measured = measurement_source(i, t, x)
            if measured is not None:
                try:
                    state = np.asarray(measured, dtype=float)
                except (TypeError, ValueError):  # not an array of numbers
                    state = None
                if state is None or state.shape != (n,) or not _all_finite(state):
                    shown = measured if state is None else state.tolist()
                    msg = f"measured state must be {n} finite values, got {shown}"
                    raise _annotate(ValueError(msg), f"interval {i}, t={t}", interval_index=i)
                x, _ = _clamp(problem, state)
        try:
            drift = eval_drift(problem, t, x)
            grid, _ = chattering.generate_levels_with_dynamics(cache, t, x, dt, drift)
            # the two products also serve the pricing step
            p_terms = (B @ p, drift @ p)
            g_vals, h_vals = _sweep(problem, t, x, grid.levels, p_terms)
            if not _all_finite(h_vals):
                raise NonFiniteEvaluation(f"Hamiltonian is non-finite at t={t}")
            levels = grid.levels
            if priced:
                won = _price(problem, t, x, p, dt, drift, p_terms, grid, float(h_vals.min()))
                if won is not None:
                    levels, g_vals, h_vals = won
                    priced_ranges[i] = (grid.lo, grid.hi)
            support, weights = solve_measure_lp(h_vals)
            # the zero-weight levels add nothing: reduce over the support only
            levels = levels[support]
            levels.setflags(write=False)  # handed to the hooks, then recorded
            stage = float(weights @ g_vals[support]) * dt
            h_values[i] = weights @ h_vals[support]
            x_next, clamped = step_state(problem, x, weights, drift + levels @ B, dt)
            p_next = step_costate(problem, t, x, p, levels, weights, dt)
            if not (_all_finite(x_next) and _all_finite(p_next)):
                raise NonFiniteEvaluation(f"state or costate step is non-finite at t={t}")
        except (NonFiniteEvaluation, InfeasibleLevels, ValueError) as err:
            raise _annotate(err, f"interval {i}, t={t}", interval_index=i)
        xs[i], ps[i], us[i], stage_costs[i] = x, p, weights @ levels, stage
        offsets[i + 1] = offsets[i] + support.size
        support_levels.append(levels)
        support_weights.append(weights)
        cost += stage
        clamp_count += clamped
        x, p = x_next, p_next
        # the next build writes over the cache's product, which this grid
        # may share: drop it now (a filtered grid would also be a second
        # array alive through that build)
        grid = None
    xs[N], ps[N] = x, p
    cost += eval_terminal_cost(problem, x)
    return Trajectory(
        partition.times, xs, ps, us, h_values, stage_costs, offsets,
        np.concatenate(support_levels), np.concatenate(support_weights), cost, clamp_count,
        priced_ranges,
    )


def accumulate_cost(problem: ControlProblem, trajectory: Trajectory) -> float:
    """Recompute the discretized cost from the stored columns: left-endpoint
    sum of the relaxed running cost ``sum_k a_k g(t, x, c_k)`` over each
    interval's support levels, plus the terminal cost."""
    total = 0.0
    times, off = trajectory.times.tolist(), trajectory.offsets.tolist()
    for i, (a, b) in enumerate(zip(off, off[1:])):
        # model's binding: a wrapper of this module's one sees only the sweeps
        levels = trajectory.support_levels[a:b]
        g = model.eval_running_cost_batch(problem, times[i], trajectory.x[i], levels)
        total += float(trajectory.support_weights[a:b] @ g) * (times[i + 1] - times[i])
    return total + eval_terminal_cost(problem, trajectory.x[-1])


def replay_measurement_source(replacements: Mapping[int, Sequence[float]]) -> MeasurementSource:
    """Measurement source that replays recorded states keyed by interval
    index; intervals without an entry keep the propagated prediction."""
    table = {int(k): np.asarray(v, dtype=float) for k, v in replacements.items()}

    def source(i: int, t: float, x_pred: Array) -> Optional[Array]:
        return table.get(i)

    return source


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``.  Text that is not UTF-8,
    malformed JSON, a value other than an object and a key repeated within
    one object raise ``ValueError`` naming ``what`` and the file."""

    def unique(pairs):
        table = {}
        for key, value in pairs:
            if key in table:
                raise ValueError(f"{what} {path}: key {key!r} appears twice")
            table[key] = value
        return table

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=unique)
    except UnicodeDecodeError as err:
        raise ValueError(f"{what} {path} is not UTF-8 text: {err.reason} at byte {err.start}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} {path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, not a {type(raw).__name__}")
    return raw


def load_replay_file(path) -> MeasurementSource:
    """Load a JSON replay file, an object mapping interval index to a state
    vector.  What ``_read_json_object`` refuses, a key that is not ASCII
    decimal digits (``int`` would read ``"-1"``, ``"+3"`` and ``"1_0"``), a
    second key for the same interval (``"1"`` and ``"01"``) and a state
    that is not a rectangular array of numbers raise ``ValueError`` naming
    the file (and the keys)."""
    table, keys = {}, {}
    for key, state in _read_json_object(path, "replay file").items():
        if not (key.isascii() and key.isdigit()):
            raise ValueError(f"replay file {path}: key {key!r} is not an interval index")
        index = int(key)
        if index in keys:
            raise ValueError(
                f"replay file {path}: keys {keys[index]!r} and {key!r} name the same interval {index}"
            )
        keys[index] = key
        try:
            table[index] = np.asarray(state, dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"replay file {path}: the state at key {key!r} is not an array of numbers: {err}"
            ) from None
    return replay_measurement_source(table)
