"""The benchmark's workloads: inputs drawn from a seed, the op, and its checks.

Every workload is built only from the public ``chatterctl`` API.  An op is
one unit of timed work; ``check`` lists what is wrong with one op's output
(empty when correct).  Every workload also checks the returned trajectory's
cost against ``propagation.accumulate_cost``.

- ``lqr``: the scalar regulator at 100 intervals (101 levels, cap 4096,
  gamma 0.5, eps 1e-3).  One op is one ``shooting.solve``.  No state bounds
  and one control, so level generation never searches or filters; the time
  is damped finite-difference shooting plus per-interval overhead.  Checked
  against the closed-form optimum.
- ``desk``: the grocer with seasonal demand (amplitude 5, period 0.5), 200
  intervals, gamma 1.0, other settings at the CLI defaults.  One op is one
  ``shooting.solve``; 20 states, 29 controls, a zero state floor and a level
  grid capped at 4096, so level search, feasibility filter and sensitivity
  runs all carry weight.
- ``feedback``: one ``propagation.propagate_forward`` of the desk problem
  with ``replay_measurement_source`` replacing the state at a fixed set of
  intervals.  Level generation runs at off-nominal states and the shooting
  loop is never entered.

Seeds: on ``lqr`` and ``desk``, seed 0 is the reference run with p0 = 0 and
other seeds draw ``p0_initial`` ~ N(0, sigma^2) per coordinate.  The shooting
map is discontinuous in p0: on ``lqr`` a draw with sigma = 1e-3 already
flips the iteration count between 8 and 14, so the ``lqr`` sigma is 1e-5,
a jitter that keeps the reference iteration path.  ``desk`` (gamma 1.0,
piecewise-affine shooting map) converges in 4 iterations to the same p0 for
sigma = 1.  On ``feedback`` every seed draws the replayed states and p0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from chatterctl import (
    GridParams,
    ShootingConfig,
    TimePartition,
    Trajectory,
    build_lqr,
    build_supply_chain,
    lqr_analytic_solution,
    replay_measurement_source,
    synthetic_demand,
)
from chatterctl import propagation, shooting

#: CLI defaults: 101 levels per control dimension, 4096 levels at most
GRID = GridParams(k_per_dim=101, cap=4096)
EPSILON = 1e-3

LQR_INTERVALS = 100
LQR_P0_SIGMA = 1e-5
LQR_TOLERANCE = 0.05

DESK_INTERVALS = 200
DESK_P0_SIGMA = 1.0

#: feedback replays every second interval: level-generation work depends on
#: the state, and 99 replays per op average it, so the op time does not hinge
#: on a few draws (timed round-robin in one process over eight seeds, the
#: spread of op time was 7.5% with every fifth interval, 2% with every second)
FEEDBACK_REPLAY_INTERVALS = tuple(range(2, DESK_INTERVALS, 2))
#: replayed inventory is drawn up to the initial stock, unmet demand up to
#: about the peak the reference run reaches (0.65)
FEEDBACK_INVENTORY_MAX = 10.0
FEEDBACK_UNMET_MAX = 1.0
#: relative tolerance of a trajectory's cost against its recomputation
COST_TOLERANCE = 1e-9
#: p0 at the magnitude of the converged desk costate: about 1e5 on the
#: inventory coordinates and 1e2 on unmet demand, times U(0.5, 2)
FEEDBACK_P0_INVENTORY = 1e5
FEEDBACK_P0_UNMET = 1e2
FEEDBACK_P0_SPREAD = (0.5, 2.0)

N_ITEMS = 5


@dataclass
class Case:
    """One workload at one seed, set up and ready to run ops.  A feedback
    op never enters the shooting loop; it counts as one iteration.
    ``propagate`` runs the op's first forward propagation on its own."""

    op: Callable[[], object]
    propagate: Callable[[], Trajectory]
    check: Callable[[object], List[str]]
    trajectory: Callable[[object], Trajectory]
    iterations: Callable[[object], int]


def build_problem(name: str):
    if name == "lqr":
        return build_lqr()
    demand = synthetic_demand("seasonal", 5.0, 0.5)
    return build_supply_chain(demand, 1.0, DESK_INTERVALS)


def _draw_p0(seed: int, sigma: float, n: int) -> np.ndarray:
    if seed == 0:
        return np.zeros(n)
    return np.random.default_rng(seed).normal(0.0, sigma, n)


def _cost_errors(problem, trajectory) -> List[str]:
    """The accumulated cost must match the one recomputed from the points."""
    recomputed = propagation.accumulate_cost(problem, trajectory)
    reported = trajectory.accumulated_cost
    if abs(reported - recomputed) > COST_TOLERANCE * max(1.0, abs(recomputed)):
        return [f"accumulated cost {reported!r} but the points give {recomputed!r}"]
    return []


def _solve_case(problem, partition, config, check) -> Case:
    def op():
        return shooting.solve(problem, partition, config, GRID)

    def propagate():
        return propagation.propagate_forward(problem, partition, config.p0_initial, GRID)

    return Case(op, propagate, check, lambda r: r.trajectory, lambda r: r.iterations)


def lqr_case(problem, seed: int) -> Case:
    partition = TimePartition.uniform(problem.horizon, LQR_INTERVALS)
    config = ShootingConfig(
        p0_initial=_draw_p0(seed, LQR_P0_SIGMA, 1), gamma=0.5, epsilon=EPSILON
    )
    exact = np.array([lqr_analytic_solution(t)[0] for t in partition.times])
    j_star = lqr_analytic_solution(0.0)[3]

    def check(result) -> List[str]:
        if not result.converged:
            return [f"lqr did not converge: {result.message}"]
        states = result.trajectory.states()[:, 0]
        state_err = float(np.max(np.abs(states - exact) / np.abs(exact)))
        cost_err = abs(result.trajectory.accumulated_cost - j_star) / j_star
        problems = []
        if state_err > LQR_TOLERANCE:
            problems.append(f"lqr state error {state_err:.4f} exceeds {LQR_TOLERANCE}")
        if cost_err > LQR_TOLERANCE:
            problems.append(f"lqr cost error {cost_err:.4f} exceeds {LQR_TOLERANCE}")
        return problems

    return _solve_case(problem, partition, config, check)


def desk_case(problem, seed: int) -> Case:
    partition = TimePartition.uniform(problem.horizon, DESK_INTERVALS)
    config = ShootingConfig(
        p0_initial=_draw_p0(seed, DESK_P0_SIGMA, problem.state_dim),
        gamma=1.0,
        epsilon=EPSILON,
    )

    def check(result) -> List[str]:
        if not result.converged or not result.residual < EPSILON:
            return [f"desk did not converge (residual {result.residual:.3e}): {result.message}"]
        if np.any(result.trajectory.states() < 0.0):
            return ["desk trajectory has a negative state"]
        return _cost_errors(problem, result.trajectory)

    return _solve_case(problem, partition, config, check)


def feedback_case(problem, seed: int) -> Case:
    partition = TimePartition.uniform(problem.horizon, DESK_INTERVALS)
    rng = np.random.default_rng(seed)
    n = problem.state_dim
    scale = np.concatenate(
        [np.full(N_ITEMS, FEEDBACK_P0_INVENTORY), np.full(n - N_ITEMS, FEEDBACK_P0_UNMET)]
    )
    p0 = scale * rng.uniform(*FEEDBACK_P0_SPREAD, n)
    table = {
        i: np.concatenate(
            [
                rng.uniform(0.0, FEEDBACK_INVENTORY_MAX, N_ITEMS),
                rng.uniform(0.0, FEEDBACK_UNMET_MAX, n - N_ITEMS),
            ]
        )
        for i in FEEDBACK_REPLAY_INTERVALS
    }
    source = replay_measurement_source(table)
    lower = problem.state_lower if problem.state_lower is not None else -np.inf
    upper = problem.state_upper if problem.state_upper is not None else np.inf
    replayed = {i: np.clip(x, lower, upper) for i, x in table.items()}

    def op():
        return propagation.propagate_forward(
            problem, partition, p0, GRID, measurement_source=source
        )

    def check(trajectory) -> List[str]:
        states = trajectory.states()
        if not np.all(np.isfinite(states)) or np.any(states < lower) or np.any(states > upper):
            return ["feedback trajectory leaves the state box"]
        # the replayed intervals start from the measured state, clamped to the box
        for i, x in replayed.items():
            if not np.array_equal(trajectory.points[i].x, x):
                return [f"interval {i} does not start from the replayed state"]
        return _cost_errors(problem, trajectory)

    return Case(op, op, check, lambda t: t, lambda t: 1)


CASES = {"lqr": lqr_case, "desk": desk_case, "feedback": feedback_case}
