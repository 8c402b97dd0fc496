import dataclasses
import json
import re

import numpy as np
import pytest

from chatterctl import (
    ChatteringMeasure,
    ControlProblem,
    GridParams,
    LevelGrid,
    ShootingConfig,
    TimePartition,
    accumulate_cost,
    build_lqr,
    build_supply_chain,
    control_from_measure,
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
from chatterctl.chattering import generate_levels_with_dynamics
from chatterctl.model import affine_p_dot_f, eval_drift, eval_dynamics_batch, eval_running_cost_batch
from oracles import bolza_problem, without_hooks


def lqr_point(x, p, t=0.0):
    """The (t, x, p) triple of a scalar problem."""
    return t, np.array([x]), np.array([p])


def state_step(problem, t, x, p, grid, measure, dt):
    """``step_state`` on the dynamics rows at the grid's levels, as
    ``propagate_forward`` calls it."""
    f_vals = eval_dynamics_batch(problem, t, x, grid.levels)
    return step_state(problem, x, measure, f_vals, dt)


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
        measure = ChatteringMeasure(np.array([1.0]))
        x_next, clamped = state_step(problem, *lqr_point(10.0, 0.0), grid, measure, 0.01)
        assert x_next[0] == pytest.approx(10.1, abs=1e-15)
        assert not clamped

    def test_state_step_fixed_point_when_dynamics_vanish(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([2.0]),
            running_cost=lambda t, x, u: 0.0,
            dynamics=lambda t, x, u: np.zeros(1),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        grid = LevelGrid(np.array([[0.5]]))
        measure = ChatteringMeasure(np.array([1.0]))
        x_next, _ = state_step(problem, *lqr_point(2.0, 0.0), grid, measure, 0.3)
        assert x_next[0] == 2.0

    def test_state_step_convex_combination(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[-2.0], [0.0]]))
        measure = ChatteringMeasure(np.array([0.5, 0.5]))
        x_next, _ = state_step(problem, *lqr_point(10.0, 0.0), grid, measure, 0.01)
        assert x_next[0] == pytest.approx(10.09, abs=1e-15)

    def test_costate_step_lqr(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[1.0]]))
        measure = ChatteringMeasure(np.array([1.0]))
        p_next = step_costate(problem, *lqr_point(10.0, 0.0), grid, measure, 0.01)
        assert p_next[0] == pytest.approx(-0.2, abs=1e-15)
        p_next = step_costate(problem, *lqr_point(0.0, 1.0), grid, measure, 0.1)
        assert p_next[0] == pytest.approx(0.9, abs=1e-15)

    def test_costate_unchanged_when_cost_and_dynamics_ignore_state(self):
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost=lambda t, x, u: float(u[0] ** 2),
            dynamics=lambda t, x, u: np.array([u[0]]),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        grid = LevelGrid(np.array([[0.7]]))
        measure = ChatteringMeasure(np.array([1.0]))
        p_next = step_costate(problem, *lqr_point(3.0, 2.5), grid, measure, 0.25)
        assert p_next[0] == pytest.approx(2.5, abs=1e-9)

    def test_increments_homogeneous_in_dt(self):
        # dyadic values so the x + dt*drift - x round trip is exact and the
        # halving identity can be asserted bitwise
        problem = build_lqr()
        grid = LevelGrid(np.array([[-1.5], [2.0]]))
        measure = ChatteringMeasure(np.array([0.25, 0.75]))
        t, x, p = lqr_point(3.5, -1.25)
        dx_full = state_step(problem, t, x, p, grid, measure, 0.25)[0] - x
        dx_half = state_step(problem, t, x, p, grid, measure, 0.125)[0] - x
        assert dx_half[0] == 0.5 * dx_full[0]
        dp_full = step_costate(problem, t, x, p, grid, measure, 0.25) - p
        dp_half = step_costate(problem, t, x, p, grid, measure, 0.125) - p
        assert dp_half[0] == 0.5 * dp_full[0]

    def test_increments_scale_with_dt_generic_values(self):
        problem = build_lqr()
        grid = LevelGrid(np.array([[-1.5], [2.0]]))
        measure = ChatteringMeasure(np.array([0.25, 0.75]))
        t, x, p = lqr_point(3.7, -1.3)
        steps = (
            (x, lambda dt: state_step(problem, t, x, p, grid, measure, dt)[0]),
            (p, lambda dt: step_costate(problem, t, x, p, grid, measure, dt)),
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
            dynamics=lambda t, x, u: np.array([u[0]]),
            control_lower=np.array([-10.0]),
            control_upper=np.array([10.0]),
            state_lower=np.array([0.0]),
            state_upper=np.array([1.0]),
        )
        grid = LevelGrid(np.array([[level]]))
        measure = ChatteringMeasure(np.array([1.0]))
        x_next, clamped = state_step(problem, *lqr_point(x, 0.0), grid, measure, dt)
        assert x_next[0] == 0.0
        assert clamped == beyond_tolerance


def trivial_problem():
    return ControlProblem(
        state_dim=1,
        control_dim=1,
        horizon=2.0,
        initial_state=np.array([1.5]),
        running_cost=lambda t, x, u: 0.0,
        dynamics=lambda t, x, u: np.zeros(1),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )


class TestPropagateForward:
    def test_single_interval_trivial_problem(self):
        problem = trivial_problem()
        part = TimePartition.uniform(2.0, 1)
        traj = propagate_forward(problem, part, np.array([3.0]), GridParams(3, 16))
        assert len(traj.points) == 2
        assert traj.accumulated_cost == 0.0
        assert traj.points[0].x[0] == 1.5 and traj.points[0].p[0] == 3.0
        assert traj.terminal.x[0] == 1.5 and traj.terminal.p[0] == 3.0
        assert traj.terminal.u is None

    def test_lqr_with_analytic_costate_is_near_optimal(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 100)
        p0 = lqr_analytic_solution(0.0)[1]
        traj = propagate_forward(problem, part, np.array([p0]), GridParams(101, 4096))
        j_star = lqr_analytic_solution(0.0)[3]
        assert abs(traj.accumulated_cost - j_star) / j_star < 0.05

    def test_lqr_zero_costate_picks_level_nearest_zero(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 100)
        traj = propagate_forward(problem, part, np.zeros(1), GridParams(101, 4096))
        first = traj.points[0]
        levels = np.linspace(-30.0, 5.0, 101)
        expected = levels[np.argmin(levels**2)]
        assert first.u[0] == expected
        assert np.array_equal(first.measure.weights, [1.0])

    def test_trajectory_point_consistency(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 20)
        traj = propagate_forward(problem, part, np.array([10.0]), GridParams(21, 4096))
        for pt in traj.points[:-1]:
            u = pt.measure.weights @ pt.grid.levels
            assert np.array_equal(u, pt.u)

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
            dynamics=lambda t, x, u: np.array([u[0] - 0.5]),
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
            dynamics=lambda t, x, u: np.zeros(1),
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
            dynamics=lambda t, x, u: np.zeros(1),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
            terminal_cost=lambda x: float(x @ x),
        )
        part = TimePartition.uniform(1.0, 4)
        traj = propagate_forward(problem, part, np.zeros(1), GridParams(3, 16))
        assert traj.accumulated_cost == pytest.approx(4.0, abs=1e-12)

    def test_error_reports_interval_index(self):
        calls = {"n": 0}

        def flaky(t, x, u):
            calls["n"] += 1
            return np.array([np.nan if t >= 0.5 else 0.0])

        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost=lambda t, x, u: 0.0,
            dynamics=flaky,
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
            dynamics=lambda t, x, u: np.zeros(1),
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

    def test_transposed_dynamics_batch(self):
        demand = synthetic_demand("seasonal", 5.0, 0.5)
        problem = without_hooks(build_supply_chain(demand, 1.0, 4))
        rows = problem.dynamics_batch
        problem = dataclasses.replace(problem, dynamics_batch=lambda t, x, U: rows(t, x, U).T)
        part = TimePartition.uniform(1.0, 4)
        expected = r"dynamics_batch returned shape \(20, (\d+)\), expected \(\1, 20\)"
        with pytest.raises(ValueError, match=expected):
            propagate_forward(problem, part, np.zeros(20), GridParams(3, 64))


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
        for i, (pt, nxt) in enumerate(zip(traj.points[:-1], traj.points[1:])):
            dt_i = nxt.t - pt.t
            p_next = step_costate(problem, pt.t, pt.x, pt.p, pt.grid, pt.measure, dt_i)
            assert np.array_equal(p_next, nxt.p)
            if i + 1 != self.REPLAYED:
                f_vals = eval_dynamics_batch(problem, pt.t, pt.x, pt.grid.levels)
                x_next, _ = step_state(problem, pt.x, pt.measure, f_vals, dt_i)
                assert np.max(np.abs(x_next - nxt.x)) <= 1e-12

    def test_level_generator_dynamics_match_a_fresh_sweep(self):
        # propagate_forward skips its own dynamics sweep when the level
        # generator hands back the rows it already evaluated; only a problem
        # without the control-affine hooks gets them, since the hooked one
        # sweeps its Hamiltonian in factored form
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        stripped = without_hooks(problem)
        rng = np.random.default_rng(6)
        for _ in range(3):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(0.0, 2.0, 20)
            # states on the zero floor make the admissibility filter drop levels
            x[rng.integers(0, 20, 6)] = 0.0
            grid, f_vals = generate_levels_with_dynamics(problem, t, x, 0.005, GridParams())
            assert f_vals is None and grid.K < GridParams().cap
            grid, f_vals = generate_levels_with_dynamics(stripped, t, x, 0.005, GridParams())
            assert f_vals is not None and grid.K < GridParams().cap
            fresh = eval_dynamics_batch(stripped, t, x, grid.levels)
            assert f_vals.shape == fresh.shape
            assert np.max(np.abs(f_vals - fresh)) <= 1e-12


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
        for point in traj.points[:-1]:
            assert point.grid.levels.tolist() == [[-1.0], [1.0]]
            assert point.measure.weights.tolist() == [0.5, 0.5]
            assert point.u.tolist() == [0.0]
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
        mixed = [pt for pt in traj.points[:-1] if pt.measure.K > 1]
        assert len(mixed) == 50 and all(pt.t >= 0.5 for pt in mixed)
        assert abs(traj.terminal.x[0]) <= 1e-15
        excess = traj.accumulated_cost - 1.0 / 24.0
        assert 0.0 < excess <= 0.01 / 4
        assert excess == pytest.approx(1.2583e-3, rel=1e-4)
        assert accumulate_cost(problem, traj) == traj.accumulated_cost
        # doubling the intervals halves the excess
        _, finer = self.bolza_half(200, 0.2525)
        assert abs(finer.terminal.x[0]) <= 1e-15
        ratio = (finer.accumulated_cost - 1.0 / 24.0) / excess
        assert 0.45 <= ratio <= 0.55

    def test_support_reductions_match_the_full_grid(self):
        # u and h_value come from the support alone; the zero-weight levels
        # of the full grid must add nothing to either
        problem, partition, result = self.bolza_run()
        for point, dt in zip(result.trajectory.points, partition.deltas.tolist()):
            grid, _ = generate_levels_with_dynamics(problem, point.t, point.x, dt, GridParams())
            drift = eval_drift(problem, point.t, point.x)
            h_vals = eval_running_cost_batch(problem, point.t, point.x, grid.levels)
            h_vals = h_vals + affine_p_dot_f(problem, drift, point.p, grid.levels)
            measure = solve_measure_lp(h_vals)
            assert grid.K == 101 and np.count_nonzero(measure.weights) == 2
            assert np.array_equal(point.u, control_from_measure(grid, measure))
            assert point.h_value == float(measure.weights @ h_vals)


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
