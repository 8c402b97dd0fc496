import dataclasses
import json
import re

import numpy as np
import pytest

from chatterctl import (
    ControlProblem,
    GridParams,
    LevelGrid,
    ShootingConfig,
    TimePartition,
    accumulate_cost,
    build_lqr,
    build_supply_chain,
    load_replay_file,
    lqr_analytic_solution,
    propagate_forward,
    replay_measurement_source,
    solve,
    solve_measure_lp,
    step_costate,
    step_state,
    synthetic_demand,
)
from chatterctl import NonFiniteEvaluation, chattering
from chatterctl.chattering import TIE_TOL, LevelCache, generate_levels_with_dynamics
from chatterctl.model import eval_drift, eval_dynamics_batch, eval_running_cost_batch
from oracles import affine_p_dot_f, bolza_problem, dense_control, fingerprint, linear_dynamics


def lqr_point(x, p, t=0.0):
    """The (t, x, p) triple of a scalar problem."""
    return t, np.array([x]), np.array([p])


def state_step(problem, t, x, p, grid, weights, dt):
    """``step_state`` on the dynamics rows at the grid's levels, as
    ``propagate_forward`` calls it."""
    f_vals = eval_dynamics_batch(problem, t, x, grid.levels)
    return step_state(problem, x, weights, f_vals, dt)


class TestTimePartition:
    def test_uniform(self):
        part = TimePartition.uniform(2.0, 4)
        assert np.allclose(part.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert part.intervals == 4
        assert part.horizon == 2.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimePartition(np.array([0.5, 1.0]))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            TimePartition(np.array([0.0, 1.0, 1.0]))

    def test_nonuniform_accepted(self):
        part = TimePartition(np.array([0.0, 0.1, 0.5, 2.0]))
        assert np.allclose(part.deltas, [0.1, 0.4, 1.5])

    def test_times_cannot_be_made_writable(self):
        part = TimePartition.uniform(1.0, 4)
        with pytest.raises(ValueError, match="WRITEABLE"):
            part.times.setflags(write=True)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TimePartition(np.array([0.0, np.inf])),
            lambda: TimePartition(np.array([0.0, 1.0, np.nan])),
            lambda: TimePartition.uniform(np.inf, 4),
        ],
        ids=["inf-end", "nan-end", "uniform-inf"],
    )
    def test_non_finite_times_rejected(self, make):
        # inf - inf is NaN, so a check on the sum of the lengths lets inf through
        with pytest.raises(ValueError, match="partition times must be finite"):
            make()

    def test_large_horizon_accepted(self):
        # the interval lengths sum to 4e8 + 0.3 only up to rounding
        times = np.array([0.0, 1e8 + 0.1, 4e8 + 0.3])
        part = TimePartition(times)
        assert part.horizon == 4e8 + 0.3
        assert np.array_equal(part.deltas, np.diff(times))


class TestSteps:
    def test_state_step_point_mass(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[0.0]]))
        weights = np.array([1.0])
        x_next, clamped = state_step(problem, *lqr_point(10.0, 0.0), grid, weights, 0.01)
        assert x_next[0] == pytest.approx(10.1, abs=1e-15)
        assert not clamped

    def test_state_step_fixed_point_when_dynamics_vanish(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([2.0]),
            running_cost=lambda t, x, u: 0.0,
            **linear_dynamics(np.zeros((1, 1))),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        grid = LevelGrid(np.array([[0.5]]))
        weights = np.array([1.0])
        x_next, _ = state_step(problem, *lqr_point(2.0, 0.0), grid, weights, 0.3)
        assert x_next[0] == 2.0

    def test_state_step_convex_combination(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[-2.0], [0.0]]))
        weights = np.array([0.5, 0.5])
        x_next, _ = state_step(problem, *lqr_point(10.0, 0.0), grid, weights, 0.01)
        assert x_next[0] == pytest.approx(10.09, abs=1e-15)

    def test_costate_step_lqr(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[1.0]]))
        weights = np.array([1.0])
        p_next = step_costate(problem, *lqr_point(10.0, 0.0), grid.levels, weights, 0.01)
        assert p_next[0] == pytest.approx(-0.2, abs=1e-15)
        p_next = step_costate(problem, *lqr_point(0.0, 1.0), grid.levels, weights, 0.1)
        assert p_next[0] == pytest.approx(0.9, abs=1e-15)

    def test_costate_unchanged_when_cost_and_dynamics_ignore_state(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost=lambda t, x, u: float(u[0] ** 2),
            **linear_dynamics(np.ones((1, 1))),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        grid = LevelGrid(np.array([[0.7]]))
        weights = np.array([1.0])
        p_next = step_costate(problem, *lqr_point(3.0, 2.5), grid.levels, weights, 0.25)
        assert p_next[0] == pytest.approx(2.5, abs=1e-9)

    @pytest.mark.parametrize(
        "step, counted",
        [
            (lambda problem, t, x, p, levels, weights: step_state(
                problem, x, weights, eval_dynamics_batch(problem, t, x, levels), 0.1), "1 rows"),
            (lambda problem, t, x, p, levels, weights: step_costate(
                problem, t, x, p, levels, weights, 0.1), "1 levels"),
        ],
        ids=["state", "costate"],
    )
    def test_steps_name_both_counts_when_support_and_weights_differ(self, step, counted):
        problem = build_lqr()
        with pytest.raises(ValueError, match=f"{counted} but the measure has 2 weights") as raised:
            step(problem, *lqr_point(1.0, 0.5), np.array([[1.0]]), np.array([0.5, 0.5]))
        assert type(raised.value) is ValueError

    def test_increments_homogeneous_in_dt(self):
        # dyadic values so the x + dt*drift - x round trip is exact and the
        # halving identity can be asserted bitwise
        problem = build_lqr()
        grid = LevelGrid(np.array([[-1.5], [2.0]]))
        weights = np.array([0.25, 0.75])
        t, x, p = lqr_point(3.5, -1.25)
        dx_full = state_step(problem, t, x, p, grid, weights, 0.25)[0] - x
        dx_half = state_step(problem, t, x, p, grid, weights, 0.125)[0] - x
        assert dx_half[0] == 0.5 * dx_full[0]
        dp_full = step_costate(problem, t, x, p, grid.levels, weights, 0.25) - p
        dp_half = step_costate(problem, t, x, p, grid.levels, weights, 0.125) - p
        assert dp_half[0] == 0.5 * dp_full[0]

    def test_increments_scale_with_dt_generic_values(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[-1.5], [2.0]]))
        weights = np.array([0.25, 0.75])
        t, x, p = lqr_point(3.7, -1.3)
        steps = (
            (x, lambda dt: state_step(problem, t, x, p, grid, weights, dt)[0]),
            (p, lambda dt: step_costate(problem, t, x, p, grid.levels, weights, dt)),
        )
        for base, step in steps:
            full = step(0.02) - base
            half = step(0.01) - base
            assert half[0] == pytest.approx(0.5 * full[0], rel=1e-12)

    @pytest.mark.parametrize(
        "x, level, dt, beyond_tolerance",
        [(0.5, -10.0, 0.2, True), (0.0, -5e-10, 1.0, False)],
        ids=["overshoot", "rounding"],
    )
    def test_state_step_clamps_to_bounds(self, x, level, dt, beyond_tolerance):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([0.5]),
            running_cost=lambda t, x, u: 0.0,
            **linear_dynamics(np.ones((1, 1))),
            control_lower=np.array([-10.0]),
            control_upper=np.array([10.0]),
            state_lower=np.array([0.0]),
            state_upper=np.array([1.0]),
        )
        grid = LevelGrid(np.array([[level]]))
        weights = np.array([1.0])
        x_next, clamped = state_step(problem, *lqr_point(x, 0.0), grid, weights, dt)
        assert x_next[0] == 0.0
        assert clamped == beyond_tolerance


def trivial_problem():
    return ControlProblem(
        state_dim=1,
        control_dim=1,
        horizon=2.0,
        initial_state=np.array([1.5]),
        running_cost=lambda t, x, u: 0.0,
        **linear_dynamics(np.zeros((1, 1))),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )


class TestPropagateForward:
    def test_single_interval_trivial_problem(self):
        problem = trivial_problem()
        part = TimePartition.uniform(2.0, 1)
        traj = propagate_forward(problem, part, np.array([3.0]), GridParams(3, 16))
        assert traj.intervals == 1 and len(traj.points) == 2
        assert traj.accumulated_cost == 0.0
        assert traj.x.tolist() == [[1.5], [1.5]] and traj.p.tolist() == [[3.0], [3.0]]
        assert traj.points[-1].u is None

    def test_lqr_with_analytic_costate_is_near_optimal(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 100)
        p0 = lqr_analytic_solution(0.0)[1]
        traj = propagate_forward(problem, part, np.array([p0]), GridParams(101, 4096))
        j_star = lqr_analytic_solution(0.0)[3]
        assert abs(traj.accumulated_cost - j_star) / j_star < 0.05

    def test_lqr_zero_costate_picks_level_nearest_zero(self):
        # the grid alone: no level sits at 0, the nearest is 0.1
        problem = dataclasses.replace(build_lqr(), hamiltonian_argmin=None)
        part = TimePartition.uniform(1.0, 100)
        traj = propagate_forward(problem, part, np.zeros(1), GridParams(101, 4096))
        levels = np.linspace(-30.0, 5.0, 101)
        expected = levels[np.argmin(levels**2)]
        assert traj.u[0, 0] == expected
        assert traj.offsets[1] == 1 and traj.support_weights[0] == 1.0

    def test_lqr_zero_costate_prices_positive_zero(self):
        # the hook's u = -p/2 beats the grid's 0.1 by 0.01 and takes the
        # whole weight, as +0.0: -0.0 would print as "-0" in the exports
        traj = propagate_forward(
            build_lqr(), TimePartition.uniform(1.0, 100), np.zeros(1), GridParams(101, 4096)
        )
        assert traj.u[0, 0] == 0.0 and np.copysign(1.0, traj.u[0, 0]) == 1.0
        assert traj.offsets[1] == 1 and traj.support_weights[0] == 1.0
        assert traj.support_levels[0, 0] == 0.0 and np.copysign(1.0, traj.support_levels[0, 0]) == 1.0
        assert traj.h_values[0] == 100.0  # x0^2 + 0^2 + 0 * (x0 + 0)

    def test_trajectory_point_consistency(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 20)
        traj = propagate_forward(problem, part, np.array([10.0]), GridParams(21, 4096))
        off = traj.offsets
        for i in range(traj.intervals):
            u = traj.support_weights[off[i]:off[i + 1]] @ traj.support_levels[off[i]:off[i + 1]]
            assert np.array_equal(u, traj.u[i])

    def test_refinement_shrinks_cost_differences(self):
        problem = build_lqr()
        costs = {}
        for intervals in (50, 100, 200, 400, 800):
            part = TimePartition.uniform(1.0, intervals)
            costs[intervals] = propagate_forward(
                problem, part, np.zeros(1), GridParams(1001, 4096)
            ).accumulated_cost
        diffs = [abs(costs[i] - costs[2 * i]) for i in (50, 100, 200, 400)]
        for a, b in zip(diffs, diffs[1:]):
            assert a >= 1.5 * b

    def test_bounds_respected_with_clamping(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([0.2]),
            running_cost=lambda t, x, u: float((u[0] + 1.0) ** 2),
            **linear_dynamics(np.ones((1, 1)), c=-0.5),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
            state_lower=np.array([0.0]),
            state_upper=np.array([2.0]),
        )
        part = TimePartition.uniform(1.0, 40)
        traj = propagate_forward(problem, part, np.zeros(1), GridParams(9, 64))
        states = traj.states()
        assert np.all(states >= -1e-9)
        assert np.all(states <= 2.0 + 1e-9)

    def test_accumulated_cost_matches_recomputation(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 50)
        traj = propagate_forward(problem, part, np.array([20.0]), GridParams(51, 4096))
        assert abs(accumulate_cost(problem, traj) - traj.accumulated_cost) <= 1e-10

    def test_constant_running_cost_integrates_to_horizon(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost=lambda t, x, u: 1.0,
            **linear_dynamics(np.zeros((1, 1))),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        part = TimePartition.uniform(1.0, 8)
        traj = propagate_forward(problem, part, np.zeros(1), GridParams(3, 16))
        assert traj.accumulated_cost == pytest.approx(1.0, abs=1e-12)

    def test_terminal_cost_only(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([2.0]),
            running_cost=lambda t, x, u: 0.0,
            **linear_dynamics(np.zeros((1, 1))),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
            terminal_cost=lambda x: float(x @ x),
        )
        part = TimePartition.uniform(1.0, 4)
        traj = propagate_forward(problem, part, np.zeros(1), GridParams(3, 16))
        assert traj.accumulated_cost == pytest.approx(4.0, abs=1e-12)

    def test_error_reports_interval_index(self):
        calls = {"n": 0}

        def flaky(t, x):
            calls["n"] += 1
            return np.array([np.nan if t >= 0.5 else 0.0])

        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost=lambda t, x, u: 0.0,
            drift=flaky,
            control_matrix=np.zeros((1, 1)),
            drift_jacobian=lambda t, x: np.zeros((1, 1)),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        part = TimePartition.uniform(1.0, 4)
        from chatterctl import NonFiniteEvaluation

        with pytest.raises(NonFiniteEvaluation) as excinfo:
            propagate_forward(problem, part, np.zeros(1), GridParams(3, 16))
        assert excinfo.value.interval_index == 2
        assert "interval 2" in str(excinfo.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("intervals", [10, 1])
    def test_overflowing_costate_step_reports_interval(self, intervals):
        # every evaluation is finite, but p - dt * dH/dx overflows to inf
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost=lambda t, x, u: 0.0,
            **linear_dynamics(np.zeros((1, 1))),
            control_lower=np.array([0.0]),
            control_upper=np.array([1.0]),
            hamiltonian_x_gradient=lambda t, x, p, u: np.array([-1.7e308]),
        )
        part = TimePartition.uniform(1.0, intervals)
        from chatterctl import NonFiniteEvaluation

        with pytest.raises(NonFiniteEvaluation) as excinfo:
            propagate_forward(problem, part, np.array([1.7e308]), GridParams(3, 16))
        assert excinfo.value.interval_index == 0
        assert "interval 0" in str(excinfo.value)


class TestMalformedHookOutput:
    """A hook output of the wrong shape is refused by name before it reaches
    the sweep, where it failed as a broadcast or indexing error."""

    @pytest.mark.parametrize(
        "cost, got",
        [
            (lambda t, x, U: (x[0] ** 2 + U[:, 0] ** 2)[:, None], "(5, 1)"),
            (lambda t, x, U: x[0] ** 2 + U[:3, 0] ** 2, "(3,)"),
            (lambda t, x, U: x[0] ** 2, "()"),
        ],
        ids=["column", "three-rows", "scalar"],
    )
    def test_running_cost_batch_shape(self, cost, got):
        problem = dataclasses.replace(build_lqr(), running_cost_batch=cost)
        part = TimePartition.uniform(1.0, 4)
        expected = f"running_cost_batch returned shape {got}, expected (5,)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            propagate_forward(problem, part, np.zeros(1), GridParams(5, 16))

    def test_shape_error_tagged_with_interval(self):
        problem = dataclasses.replace(build_lqr(), running_cost_batch=lambda t, x, U: np.zeros(3))
        part = TimePartition.uniform(1.0, 4)
        with pytest.raises(ValueError) as excinfo:
            propagate_forward(problem, part, np.zeros(1), GridParams(5, 16))
        assert excinfo.value.interval_index == 0
        assert str(excinfo.value).endswith("expected (5,) [interval 0, t=0.0]")

    def test_hook_error_with_other_constructor_keeps_its_type(self):
        # JSONDecodeError takes (msg, doc, pos): it is tagged in place
        def cost(t, x, U):
            raise json.JSONDecodeError("table unreadable", "", 0)

        problem = dataclasses.replace(build_lqr(), running_cost_batch=cost)
        with pytest.raises(json.JSONDecodeError) as excinfo:
            propagate_forward(problem, TimePartition.uniform(1.0, 4), np.zeros(1), GridParams(5, 16))
        assert excinfo.value.interval_index == 0
        assert str(excinfo.value).endswith("(char 0) [interval 0, t=0.0]")

    def test_column_drift(self):
        demand = synthetic_demand("seasonal", 5.0, 0.5)
        problem = build_supply_chain(demand, 1.0, 4)
        drift = problem.drift
        problem = dataclasses.replace(problem, drift=lambda t, x: drift(t, x)[:, None])
        part = TimePartition.uniform(1.0, 4)
        expected = "drift returned shape (20, 1), expected (20,) [interval 0, t=0.0]"
        with pytest.raises(ValueError, match=re.escape(expected)):
            propagate_forward(problem, part, np.zeros(20), GridParams(3, 64))


def priced_lqr(argmin):
    """The regulator with ``argmin`` as its ``hamiltonian_argmin``."""
    return dataclasses.replace(build_lqr(), hamiltonian_argmin=argmin)


def two_control_box():
    """x' = u1 + u2 with u in [-1, 1]^2, x0 = 0, x <= 0.15 and one interval
    of dt = 0.1, with the control-affine hooks.  Each control alone may
    take its whole range (the other at the box midpoint 0), so the searched
    ranges are the control bounds, but the product filter drops the levels
    with u1 + u2 > 1.5.  g = |u - (1, 1)|^2 and p = 0: on the grid
    (1, 0.5) and (0.5, 1) tie at H = 0.25."""
    return ControlProblem(
        state_dim=1,
        control_dim=2,
        horizon=0.1,
        initial_state=np.zeros(1),
        control_lower=np.full(2, -1.0),
        control_upper=np.full(2, 1.0),
        running_cost_batch=lambda t, x, U: ((U - 1.0) ** 2).sum(axis=1),
        hamiltonian_x_gradient=lambda t, x, p, u: np.zeros(1),
        state_upper=np.array([0.15]),
        drift=lambda t, x: np.zeros(1),
        control_matrix=np.ones((2, 1)),
        drift_jacobian=lambda t, x: np.zeros((1, 1)),
    )


class TestPricingHook:
    """The rows of ``hamiltonian_argmin`` are checked like any hook output,
    box-tested like any level and priced through the same paths; they
    replace the grid in the measure LP only when the best of them beats the
    grid minimum by more than ``TIE_TOL``."""

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (lambda lo, hi: [0.0], ValueError, "hamiltonian_argmin returned shape (1,), expected (k, 1)"),
            (lambda lo, hi: [[0.0, 0.0]], ValueError, "returned shape (1, 2), expected (k, 1)"),
            (lambda lo, hi: [[np.nan]], NonFiniteEvaluation, "hamiltonian_argmin returned a non-finite value"),
            (lambda lo, hi: [[0.0], [-np.inf]], NonFiniteEvaluation, "returned a non-finite value"),
            (lambda lo, hi: hi[None] + 1e-12, ValueError, "hamiltonian_argmin returned a row outside"),
            (lambda lo, hi: [[0.0], lo - 1.0], ValueError, "returned a row outside the control ranges"),
        ],
        ids=["flat", "wide", "nan", "inf", "above", "below"],
    )
    def test_bad_rows_refused_with_their_interval(self, rows, error, message):
        # the hook goes wrong from t = 0.5 on: interval 2 of 4
        exact = build_lqr().hamiltonian_argmin

        def argmin(t, x, p, lo, hi):
            return rows(lo, hi) if t >= 0.5 else exact(t, x, p, lo, hi)

        part = TimePartition.uniform(1.0, 4)
        with pytest.raises(error, match=re.escape(message)) as excinfo:
            propagate_forward(priced_lqr(argmin), part, np.zeros(1), GridParams(5, 16))
        assert excinfo.value.interval_index == 2
        assert "[interval 2, t=0.5]" in str(excinfo.value)

    @pytest.mark.parametrize("value", [0.5, -3.0], ids=["gap", "below"])
    def test_gated_value_outside_zero_and_active_range_refused(self, value):
        # u gated to {0} + [1, 5] inside the bounds [-30, 5]; the hook goes
        # wrong from t = 0.5 on: interval 2 of 4
        def argmin(t, x, p, lo, hi):
            return [[value]] if t >= 0.5 else [[0.0], [1.0], [3.0]]

        problem = dataclasses.replace(priced_lqr(argmin), gated_dims={0: (1.0, 5.0)})
        part = TimePartition.uniform(1.0, 4)
        message = (
            f"hamiltonian_argmin returned {value} on gated control dimension 0, "
            "which admits only 0 and [1.0, 5.0]"
        )
        with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
            propagate_forward(problem, part, np.zeros(1), GridParams(5, 16))
        assert excinfo.value.interval_index == 2
        assert "[interval 2, t=0.5]" in str(excinfo.value)

    def test_no_candidate_leaves_the_grid_measure(self):
        part, params = TimePartition.uniform(1.0, 20), GridParams(101, 4096)
        grid_only = propagate_forward(priced_lqr(None), part, np.zeros(1), params)
        empty = priced_lqr(lambda t, x, p, lo, hi: np.empty((0, 1)))
        assert fingerprint(propagate_forward(empty, part, np.zeros(1), params)) == fingerprint(
            grid_only
        )

    def test_row_leaving_the_box_is_dropped(self):
        problem = two_control_box()
        seen = []

        def corner(t, x, p, lo, hi):
            seen.append((lo.tolist(), hi.tolist()))
            return hi[None]  # (1, 1): one step to 0.2

        part, params = TimePartition.uniform(0.1, 1), GridParams(5, 64)
        grid_only = propagate_forward(problem, part, np.zeros(1), params)
        assert grid_only.support_levels.tolist() == [[0.5, 1.0], [1.0, 0.5]]
        priced = propagate_forward(
            dataclasses.replace(problem, hamiltonian_argmin=corner), part, np.zeros(1), params
        )
        assert seen == [([-1.0, -1.0], [1.0, 1.0])]
        assert fingerprint(priced) == fingerprint(grid_only)

    def test_only_rows_inside_the_box_that_beat_the_grid_are_kept(self):
        # (1, 1) leaves the box, (1, 0.5) ties the grid minimum and
        # (0.75, 0.75) beats it by 0.125: that one row takes the weight
        problem = two_control_box()
        rows = [[1.0, 1.0], [0.75, 0.75], [1.0, 0.5]]
        problem = dataclasses.replace(problem, hamiltonian_argmin=lambda t, x, p, lo, hi: rows)
        traj = propagate_forward(problem, TimePartition.uniform(0.1, 1), np.zeros(1), GridParams(5, 64))
        assert traj.support_levels.tolist() == [[0.75, 0.75]]
        assert traj.support_weights.tolist() == [1.0]
        assert traj.h_values.tolist() == [0.125] and traj.stage_costs.tolist() == [0.0125]
        assert traj.x[-1, 0] == 0.15

    def test_priced_row_tied_with_the_best_shares_the_weight(self):
        # at p = 0 the grid's best level is u = 0.1, H = 100.01; the first
        # row is 1.5e-9 below that and the second 0.8e-9: not a winner on
        # its own, but within TIE_TOL of the first, as in the LP over the
        # grid and both rows
        grid_only = propagate_forward(
            priced_lqr(None), TimePartition.uniform(1.0, 4), np.zeros(1), GridParams(101, 4096)
        )
        u, h_min = grid_only.u[0, 0], grid_only.h_values[0]
        rows = [[u - 7.5e-9], [u - 4e-9]]

        def argmin(t, x, p, lo, hi):
            return rows if t == 0.0 else np.empty((0, 1))

        traj = propagate_forward(
            priced_lqr(argmin), TimePartition.uniform(1.0, 4), np.zeros(1), GridParams(101, 4096)
        )
        h = [100.0 + r[0] ** 2 for r in rows]
        assert h[0] + TIE_TOL < h_min <= h[1] + TIE_TOL and h[1] <= h[0] + TIE_TOL
        assert traj.offsets[1] == 2
        assert traj.support_levels[:2].tolist() == rows
        assert traj.support_weights[:2].tolist() == [0.5, 0.5]

    def test_memo_hit_prices_at_the_new_costate(self):
        # x <= 10.1 from x0 = 10 over dt = 0.01 caps u near 0, so interval 0
        # has searched ranges; the second run starts it from the same state
        # and reuses its level work, but must price at its own p0
        problem = dataclasses.replace(build_lqr(), state_upper=np.array([10.1]))
        exact, seen = problem.hamiltonian_argmin, []

        def argmin(t, x, p, lo, hi):
            if t == 0.0:
                seen.append((p.tolist(), lo.tolist(), hi.tolist()))
            return exact(t, x, p, lo, hi)

        problem = dataclasses.replace(problem, hamiltonian_argmin=argmin)
        part, params = TimePartition.uniform(1.0, 100), GridParams(101, 4096)
        cache = LevelCache(problem, params)
        cache.memo = {}
        propagate_forward(problem, part, np.array([4.0]), params, cache=cache)
        state, lo, hi = cache.memo[(0.0, 0.01)][:3]
        assert state == problem.initial_state.tobytes() and abs(hi[0]) < 1e-6
        reused = propagate_forward(problem, part, np.array([20.0]), params, cache=cache)
        assert seen == [([4.0], [-30.0], hi.tolist()), ([20.0], [-30.0], hi.tolist())]
        assert reused.u[0, 0] == -10.0 and reused.support_weights[0] == 1.0
        fresh = propagate_forward(problem, part, np.array([20.0]), params)
        assert fingerprint(reused) == fingerprint(fresh)


class TestTrajectoryRecord:
    """The columnar record: read-only arrays, checked once when built."""

    @staticmethod
    def bolza_record():
        # every interval chatters between u = -1 and u = 1, so the supports
        # have two rows each
        problem = bolza_problem(0.0)
        return propagate_forward(problem, TimePartition.uniform(1.0, 4), np.zeros(1), GridParams())

    def test_columns_and_points(self):
        traj = self.bolza_record()
        assert traj.intervals == 4
        assert traj.x.shape == traj.p.shape == (5, 1) and traj.u.shape == (4, 1)
        assert traj.offsets.tolist() == [0, 2, 4, 6, 8]
        assert traj.support_levels.shape == (8, 1) and traj.support_weights.shape == (8,)
        assert traj.states() is traj.x and traj.controls() is traj.u
        for name in ("times", "x", "p", "u", "h_values", "stage_costs", "offsets",
                     "support_levels", "support_weights"):
            assert not getattr(traj, name).flags.writeable, name
            with pytest.raises(ValueError, match="WRITEABLE"):
                getattr(traj, name).setflags(write=True)
        assert traj.points is traj.points
        assert [pt.t for pt in traj.points] == traj.times.tolist()
        assert all(np.array_equal(pt.u, u) for pt, u in zip(traj.points, traj.u))
        assert traj.points[-1].u is None and np.array_equal(traj.points[-1].x, traj.x[-1])

    def test_hooks_cannot_write_the_recorded_support(self):
        # the support rows reach the hooks before they are recorded
        def gradient(t, x, p, u):
            u[0] = 0.0
            return np.array([2.0 * x[0]])

        problem = dataclasses.replace(bolza_problem(0.0), hamiltonian_x_gradient=gradient)
        with pytest.raises(ValueError, match="read-only") as excinfo:
            propagate_forward(problem, TimePartition.uniform(1.0, 4), np.zeros(1), GridParams())
        assert excinfo.value.interval_index == 0

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(times=[0.0, 0.5, 0.5, 0.75, 1.0]), "strictly increasing"),
            (dict(x=np.full((5, 1), np.nan)), "non-finite"),
            (dict(p=np.zeros((4, 1))), "x and p"),
            (dict(u=np.zeros((4, 2))), None),
            (dict(stage_costs=np.zeros(3)), "stage_costs"),
            (dict(offsets=[0, 2, 2, 6, 8]), "offsets"),
            (dict(offsets=[0, 2, 4, 6, 7]), "offsets"),
            (dict(support_weights=[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.4]), "sum to 1"),
            (dict(support_weights=[1.5, -0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]), r"\[0, 1\]"),
            (dict(support_weights=[np.nan, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]), r"\[0, 1\]"),
        ],
        ids=["times", "x", "p", "u", "stage-costs", "empty-support", "offsets-end",
             "weight-sum", "weight-range", "weight-nan"],
    )
    def test_inconsistent_columns_rejected(self, changes, message):
        traj = self.bolza_record()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(traj, **changes)


class TestFeedbackHook:
    def test_measurement_overrides_prediction(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 10)
        injected = {3: [4.0]}
        traj = propagate_forward(
            problem,
            part,
            np.zeros(1),
            GridParams(11, 64),
            measurement_source=replay_measurement_source(injected),
        )
        assert traj.points[3].x[0] == 4.0
        # downstream evolution restarts from the injected state
        baseline = propagate_forward(problem, part, np.zeros(1), GridParams(11, 64))
        assert traj.points[2].x[0] == baseline.points[2].x[0]
        assert traj.points[4].x[0] != baseline.points[4].x[0]

    def test_replay_file_round_trip(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"2": [7.5]}), encoding="utf-8")
        source = load_replay_file(path)
        assert source(2, 0.0, np.zeros(1))[0] == 7.5
        assert source(1, 0.0, np.zeros(1)) is None

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([[7.5]], "must hold a JSON object"),
            ({"2.5": [7.5]}, "key '2.5' is not an interval index"),
            ({"0": ["a", 1]}, "state at key '0' is not an array of numbers"),
            ({"0": [[1, 2], [3]]}, "state at key '0' is not an array of numbers"),
        ],
        ids=["list", "non-integer-key", "non-numeric-state", "ragged-state"],
    )
    def test_bad_replay_file_refused_by_name(self, tmp_path, raw, message):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=message) as excinfo:
            load_replay_file(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "state",
        [[5.0], [1.0] * 19, [float("nan")] * 20],
        ids=["length-1", "length-19", "nan"],
    )
    def test_replayed_state_validated(self, tmp_path, state):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 50)
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"3": state}), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            propagate_forward(
                problem,
                TimePartition.uniform(1.0, 50),
                np.zeros(20),
                GridParams(3, 64),
                measurement_source=load_replay_file(path),
            )
        assert excinfo.value.interval_index == 3
        assert "interval 3" in str(excinfo.value)

    def test_source_consulted_every_interval(self):
        problem = trivial_problem()
        part = TimePartition.uniform(2.0, 5)
        seen = []

        def source(i, t, x_pred):
            seen.append((i, t))
            return None

        propagate_forward(problem, part, np.zeros(1), GridParams(3, 16), measurement_source=source)
        assert [i for i, _ in seen] == [0, 1, 2, 3, 4]


class TestProductionPath:
    """``propagate_forward`` runs the same stage functions the step tests
    exercise: replaying each recorded point through them reproduces the
    next point."""

    INTERVALS = 6
    REPLAYED = 3

    def test_points_replay_through_step_functions(self):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        dt = problem.horizon / 200
        part = TimePartition.uniform(self.INTERVALS * dt, self.INTERVALS)
        rng = np.random.default_rng(4)
        p0 = np.concatenate([np.full(5, 1e5), np.full(15, 1e2)]) * rng.uniform(0.5, 2.0, 20)
        replayed = rng.uniform(0.0, 1.0, 20)
        source = replay_measurement_source({self.REPLAYED: replayed})
        traj = propagate_forward(problem, part, p0, GridParams(), measurement_source=source)
        assert np.array_equal(traj.points[self.REPLAYED].x, replayed)
        off = traj.offsets
        for i, (pt, nxt) in enumerate(zip(traj.points[:-1], traj.points[1:])):
            dt_i = nxt.t - pt.t
            levels = traj.support_levels[off[i]:off[i + 1]]
            weights = traj.support_weights[off[i]:off[i + 1]]
            p_next = step_costate(problem, pt.t, pt.x, pt.p, levels, weights, dt_i)
            assert np.array_equal(p_next, nxt.p)
            if i + 1 != self.REPLAYED:
                f_vals = eval_dynamics_batch(problem, pt.t, pt.x, levels)
                x_next, _ = step_state(problem, pt.x, weights, f_vals, dt_i)
                assert np.max(np.abs(x_next - nxt.x)) <= 1e-12

    def test_level_generator_returns_no_dynamics_rows(self):
        # the sweep is factored, so the generator's (grid, rows) pair never
        # carries rows: not on a filtered build, and not on a memo hit
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        cache = LevelCache(problem, GridParams())
        cache.memo = {}
        rng = np.random.default_rng(6)
        for _ in range(3):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(0.0, 2.0, 20)
            # states on the zero floor make the admissibility filter drop levels
            x[rng.integers(0, 20, 6)] = 0.0
            for _ in range(2):  # a build, then a memo hit
                grid, rows = generate_levels_with_dynamics(problem, t, x, 0.005, GridParams(), None, cache)
                assert rows is None and grid.K < GridParams().cap


class TestRelaxedStageCost:
    """The stage cost is the measure-weighted running cost sum_k a_k g(c_k),
    not g at the averaged control: on Bolza at x0 = 0 every interval mixes
    u = -1 and u = 1 half and half, where g is 0, while g at their average
    u = 0 is 1."""

    @staticmethod
    def bolza_run():
        problem = bolza_problem(0.0)
        partition = TimePartition.uniform(1.0, 100)
        result = solve(problem, partition, ShootingConfig(p0_initial=np.zeros(1)), GridParams())
        return problem, partition, result

    def test_bolza_chatters_at_zero_cost(self):
        problem, _, result = self.bolza_run()
        assert result.converged and result.iterations == 1
        traj = result.trajectory
        assert np.array_equal(traj.offsets, np.arange(0, 201, 2))
        assert traj.support_levels.tolist() == [[-1.0], [1.0]] * 100
        assert traj.support_weights.tolist() == [0.5] * 200
        assert np.all(traj.u == 0.0)
        assert np.all(traj.states() == 0.0)
        assert np.all(traj.stage_costs == 0.0)
        assert traj.accumulated_cost == 0.0
        assert accumulate_cost(problem, traj) == 0.0

    @staticmethod
    def bolza_half(intervals, p0):
        """Bolza at x0 = 0.5 from the discrete root ``p0``: u = -1 until x
        reaches 0 at t = 0.5, then every interval chatters."""
        problem = bolza_problem(0.5)
        partition = TimePartition.uniform(1.0, intervals)
        traj = propagate_forward(problem, partition, np.array([p0]), GridParams())
        return problem, traj

    def test_bolza_cost_is_first_order_in_dt(self):
        # the relaxed optimum costs |x0|^3 / 3 = 1/24; the left-endpoint sum
        # over the arrival at x = 0 adds an O(dt) excess
        problem, traj = self.bolza_half(100, 0.255)
        mixed = np.flatnonzero(np.diff(traj.offsets) > 1)
        assert len(mixed) == 50 and np.all(traj.times[mixed] >= 0.5)
        assert abs(traj.x[-1, 0]) <= 1e-15
        excess = traj.accumulated_cost - 1.0 / 24.0
        assert 0.0 < excess <= 0.01 / 4
        assert excess == pytest.approx(1.2583e-3, rel=1e-4)
        assert accumulate_cost(problem, traj) == traj.accumulated_cost
        # doubling the intervals halves the excess
        _, finer = self.bolza_half(200, 0.2525)
        assert abs(finer.x[-1, 0]) <= 1e-15
        ratio = (finer.accumulated_cost - 1.0 / 24.0) / excess
        assert 0.45 <= ratio <= 0.55

    def test_support_reductions_match_the_full_grid(self):
        # u and h_value come from the support alone; the zero-weight levels
        # of the full grid must add nothing to either
        problem, partition, result = self.bolza_run()
        h_values = result.trajectory.h_values
        for i, (point, dt) in enumerate(zip(result.trajectory.points, partition.deltas.tolist())):
            grid, _ = generate_levels_with_dynamics(problem, point.t, point.x, dt, GridParams())
            drift = eval_drift(problem, point.t, point.x)
            h_vals = eval_running_cost_batch(problem, point.t, point.x, grid.levels)
            h_vals = h_vals + affine_p_dot_f(problem, drift, point.p, grid.levels)
            support, weights = solve_measure_lp(h_vals)
            full = np.zeros(grid.K)
            full[support] = weights
            assert grid.K == 101 and np.count_nonzero(full) == 2
            assert np.array_equal(point.u, dense_control(grid.levels, full))
            assert h_values[i] == float(full @ h_vals)


def count_drift_calls(problem):
    """The problem with its drift wrapped to count calls, and the counter."""
    calls = {"drift": 0}

    def drift(t, x):
        calls["drift"] += 1
        return problem.drift(t, x)

    return dataclasses.replace(problem, drift=drift), calls


class TestOneDriftPerInterval:
    """The interval step evaluates the drift once and shares it between the
    level search, the filter, the factored sweep and the state step."""

    def test_grocer(self):
        problem, calls = count_drift_calls(
            build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 10)
        )
        propagate_forward(problem, TimePartition.uniform(1.0, 10), np.zeros(20), GridParams())
        assert calls["drift"] == 10

    def test_lqr(self):
        problem, calls = count_drift_calls(build_lqr())
        propagate_forward(problem, TimePartition.uniform(1.0, 100), np.zeros(1), GridParams())
        assert calls["drift"] == 100
