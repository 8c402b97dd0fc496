import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chatterctl import (
    ControlProblem,
    EmptyGrid,
    GridParams,
    InfeasibleLevels,
    LevelGrid,
    TimePartition,
    build_lqr,
    build_supply_chain,
    propagate_forward,
    solve_measure_lp,
    synthetic_demand,
)
from chatterctl import chattering
from chatterctl.chattering import (
    BOUND_SEARCH_ITERATIONS,
    STEP_FEASIBILITY_TOL,
    LevelCache,
    _coarsen_counts,
    generate_levels_with_dynamics,
    schedule_segments,
)
from chatterctl.model import _FEW_VALUES, eval_drift, eval_running_cost_batch
from oracles import (
    affine_p_dot_f,
    constant_pricing,
    dense_control,
    feedback_replay,
    full_width_levels,
    level_ranges,
    linear_dynamics,
    reference_affine_ranges,
    reference_scalar_grid,
    reference_separable_sums,
    schedule_time_average,
)


def box_problem(n=1, m=1, dynamics=None, state_lower=None, state_upper=None,
                control_lower=None, control_upper=None, gated_dims=None, x0=None):
    """``dynamics`` are the three dynamics hooks as keywords
    (``linear_dynamics``); zero dynamics by default."""
    if dynamics is None:
        dynamics = linear_dynamics(np.zeros((m, n)))
    return ControlProblem(
        state_dim=n,
        control_dim=m,
        horizon=1.0,
        initial_state=np.zeros(n) if x0 is None else np.asarray(x0, float),
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        **dynamics,
        control_lower=np.full(m, -1.0) if control_lower is None else np.asarray(control_lower, float),
        control_upper=np.full(m, 1.0) if control_upper is None else np.asarray(control_upper, float),
        state_lower=state_lower,
        state_upper=state_upper,
        gated_dims=gated_dims,
    )


def build_grid(cache, t, x, dt):
    """One level build with ``cache`` as ``propagate_forward`` makes it: at
    the float state ``x``, with the drift there."""
    x = np.asarray(x, dtype=float)
    return generate_levels_with_dynamics(cache, t, x, dt, eval_drift(cache.problem, t, x))


class TestMeasureLP:
    def test_unique_argmin(self):
        support, weights = solve_measure_lp(np.array([5.0, 2.0, 9.0]))
        assert support.tolist() == [1] and weights.tolist() == [1.0]

    def test_two_way_tie_splits_uniformly(self):
        support, weights = solve_measure_lp(np.array([3.0, 3.0, 7.0]))
        assert support.tolist() == [0, 1] and weights.tolist() == [0.5, 0.5]

    def test_single_level_is_forced(self):
        support, weights = solve_measure_lp(np.array([4.2]))
        assert support.tolist() == [0] and weights.tolist() == [1.0]

    def test_empty_grid_raises(self):
        with pytest.raises(EmptyGrid):
            solve_measure_lp(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_measure_lp(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("size", [_FEW_VALUES, _FEW_VALUES + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_on_both_sides_of_the_bound(self, size, bad):
        h = np.ones(size)
        h[-1] = bad
        with pytest.raises(ValueError, match="^h_values must be finite$"):
            solve_measure_lp(h)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=2 * _FEW_VALUES,
        )
    )
    @settings(max_examples=300, deadline=None)
    # the longest list, with ties: hypothesis alone draws few lists above
    # _FEW_VALUES, where the LP's finiteness test takes its array pass
    @example([float(k % 7) for k in range(2 * _FEW_VALUES)])
    def test_matches_vertex_enumeration(self, values):
        h = np.asarray(values)
        support, w = solve_measure_lp(h)
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        # the optimum of a linear objective over the simplex is a vertex
        vertex_best = min(float(v) for v in h)
        assert float(w @ h[support]) <= vertex_best + 1e-9
        assert np.all(h[support] <= h.min() + 1e-9)
        if len(support) == 1:
            # a least value without a tie is met exactly
            assert float(w @ h[support]) == vertex_best

    def test_exact_tie_objective_equals_minimum(self):
        # powers of two split exactly
        h = np.array([0.75, 2.0, 0.75, 0.75, 0.75])
        support, weights = solve_measure_lp(h)
        assert float(weights @ h[support]) == 0.75


class TestControlFromMeasure:
    """The dense reference ``oracles.dense_control``: a weight on every
    level, zeros included."""

    def test_point_mass(self):
        levels = np.array([[-1.0], [0.0], [1.0]])
        assert dense_control(levels, np.array([0.0, 1.0, 0.0]))[0] == 0.0

    def test_midpoint(self):
        levels = np.array([[2.0], [4.0], [6.0]])
        assert dense_control(levels, np.array([0.5, 0.5, 0.0]))[0] == 3.0

    def test_degenerate_grid(self):
        assert np.array_equal(dense_control(np.array([[7.5, -2.0]]), np.array([1.0])), [7.5, -2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense_control(np.array([[0.0], [1.0]]), np.array([1.0]))


class TestRealizeSignal:
    """The duty-cycle schedule that ``schedule_segments`` lays out."""

    def test_point_mass_single_segment(self):
        starts, ends, interval, rank = schedule_segments([0.0, 1.0], [0, 1], [1.0])
        segments = list(zip(starts.tolist(), ends.tolist(), rank.tolist()))
        assert segments == [(0.0, 1.0, 0)] and interval.tolist() == [0]

    def test_duty_cycle_arithmetic(self):
        starts, ends, interval, rank = schedule_segments([0.0, 4.0], [0, 2], [0.25, 0.75])
        segments = list(zip(starts.tolist(), ends.tolist(), rank.tolist()))
        assert segments == [(0.0, 1.0, 0), (1.0, 4.0, 1)] and interval.tolist() == [0, 0]

    def test_three_equal_segments(self):
        starts, ends, _, rank = schedule_segments([0.0, 3.0], [0, 3], np.array([1.0, 1.0, 1.0]) / 3.0)
        assert rank.tolist() == [0, 1, 2]
        assert np.allclose(ends - starts, 1.0, atol=1e-12)
        assert ends[-1] == 3.0

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_signal_fidelity(self, K, m, seed):
        rng = np.random.default_rng(seed)
        levels = rng.uniform(-10.0, 10.0, size=(K, m))
        raw = rng.uniform(0.0, 1.0, size=K) + 1e-3
        weights = raw / raw.sum()
        times = np.array([rng.uniform(0.0, 5.0), 0.0])
        times[1] = times[0] + rng.uniform(0.01, 10.0)
        t_start, dt = times[0], times[1] - times[0]
        starts, ends, _, rank = schedule_segments(times, [0, K], weights)
        assert rank.tolist() == list(range(K))
        assert starts[0] == t_start
        assert ends[-1] == times[1]
        assert np.array_equal(starts[1:], ends[:-1])
        occupation = ends - starts
        assert np.all(np.abs(occupation - weights * dt) <= 1e-12 * dt)
        mean = schedule_time_average(starts, ends, levels)
        expected = dense_control(levels, weights)
        assert np.all(np.abs(mean - expected) <= 1e-12 * max(1.0, np.abs(expected).max()))

    def test_hamiltonian_sum_equals_frozen_integral(self):
        # with x, p frozen on the interval, integrating H along the realized
        # schedule is exactly the duty-cycle weighted sum of per-level values
        rng = np.random.default_rng(42)
        for _ in range(100):
            K = int(rng.integers(1, 7))
            h_values = rng.uniform(-5.0, 5.0, size=K)
            raw = rng.uniform(0.0, 1.0, size=K) + 1e-6
            weights = raw / raw.sum()
            dt = float(rng.uniform(0.1, 2.0))
            starts, ends, _, rank = schedule_segments([0.0, dt], [0, K], weights)
            integral = sum((e - s) * h_values[k] for s, e, k in zip(starts, ends, rank))
            duty_sum = float(np.sum(h_values * weights)) * dt
            assert integral == pytest.approx(duty_sum, abs=1e-12 * max(1.0, abs(duty_sum)))

    def test_intervals_laid_out_independently(self):
        # several intervals in one call: each tiles its own interval, and
        # matches the one-interval layout of the same weights
        times = np.array([0.0, 0.1, 0.35, 1.0])
        offsets = np.array([0, 2, 3, 6])
        weights = np.array([0.5, 0.5, 1.0, 1 / 3, 1 / 3, 1 / 3])
        starts, ends, interval, rank = schedule_segments(times, offsets, weights)
        assert interval.tolist() == [0, 0, 1, 2, 2, 2]
        assert rank.tolist() == [0, 1, 0, 0, 1, 2]
        for i in range(3):
            a, b = offsets[i], offsets[i + 1]
            alone = schedule_segments(times[i:i + 2], [0, b - a], weights[a:b])
            assert np.array_equal(starts[a:b], alone[0]) and np.array_equal(ends[a:b], alone[1])
            assert starts[a] == times[i] and ends[b - 1] == times[i + 1]

    def test_non_uniform_partitions_tile_the_horizon(self):
        # interval i's last segment ends where interval i + 1's first one
        # starts, bit for bit, also where t_i + (t_{i+1} - t_i) rounds away
        # from t_{i+1}
        rng = np.random.default_rng(0)
        rounded_away = 0
        for _ in range(300):
            n = int(rng.integers(1, 30))
            times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, rng.uniform(0.1, 10.0), n))))
            counts = rng.integers(1, 5, n)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            raw = rng.uniform(0.01, 1.0, offsets[-1])
            weights = raw / np.repeat(np.add.reduceat(raw, offsets[:-1]), counts)
            starts, ends, _, _ = schedule_segments(times, offsets, weights)
            assert starts[0] == times[0] and ends[-1] == times[-1]
            assert np.array_equal(starts[1:], ends[:-1])
            assert np.array_equal(ends[offsets[1:] - 1], times[1:])
            rounded_away += np.count_nonzero(times[:-1] + np.diff(times) != times[1:])
        assert rounded_away > 0


def reference_bound_search(problem, t, x, dt, dims):
    """Scalar form of the level-range rule, for comparison with the closed
    form: per dimension, hold the other controls at the midpoint, then the
    lower, then the upper control bound; on the first of these slices with a
    feasible point, bisect from it toward each infeasible end, stepping the
    state along ``drift + u @ B`` one control at a time.  Returns the ranges
    and, per dimension, the index of the anchor that supplied it."""
    lower, upper = problem.control_lower, problem.control_upper
    drift = np.asarray(problem.drift(t, x), dtype=float)
    # a missing side of the state box bounds nothing
    floor = -np.inf if problem.state_lower is None else problem.state_lower - STEP_FEASIBILITY_TOL
    ceiling = np.inf if problem.state_upper is None else problem.state_upper + STEP_FEASIBILITY_TOL

    def feasible(anchor, d, value):
        u = np.array(anchor)
        u[d] = value
        x_next = x + dt * (drift + u @ problem.control_matrix)
        return bool(np.all(x_next >= floor) and np.all(x_next <= ceiling))

    def bisect(anchor, d, a, b):
        for _ in range(BOUND_SEARCH_ITERATIONS):
            mid = 0.5 * (a + b)
            if feasible(anchor, d, mid):
                a = mid
            else:
                b = mid
        return a

    ranges, anchors_used = [], []
    for d in dims:
        lo, hi = float(lower[d]), float(upper[d])
        for k, anchor in enumerate((0.5 * (lower + upper), lower, upper)):
            lo_ok, hi_ok = feasible(anchor, d, lo), feasible(anchor, d, hi)
            start = lo if lo_ok else hi if hi_ok else 0.5 * (lo + hi)
            if lo_ok or hi_ok or feasible(anchor, d, start):
                ranges.append((
                    lo if lo_ok else bisect(anchor, d, start, lo),
                    hi if hi_ok else bisect(anchor, d, start, hi),
                ))
                anchors_used.append(k)
                break
        else:
            raise InfeasibleLevels(f"no feasible level for dimension {d}")
    return ranges, anchors_used


#: dynamics, control bounds, step and the ranges that one step inside the
#: state box [-1, 1] from x = 0 admits
ANALYTIC_BOUND_CASES = {
    # both ends infeasible: both sides are searched from the midpoint
    "midpoint-start": (linear_dynamics([[1.0]]), [-10.0], [10.0], 0.5, [(-2.0, 2.0)]),
    # only the upper end is feasible: the lower side is searched from it
    "upper-end-start": (linear_dynamics([[1.0]]), [-10.0], [1.0], 0.5, [(-2.0, 1.0)]),
    # x' = u0 - 0.2 u1 admits u0 within 0.5 of 0.2 u1: with u1 at its
    # midpoint 5 none of the probes 0, 2 and 4 of dimension 0 is feasible;
    # the slice with u1 at its lower bound is tried before the one at its
    # upper bound, which would give (1.5, 2.5)
    "lower-anchor": (linear_dynamics([[1.0], [-0.2]]), [0.0, 0.0], [4.0, 10.0], 2.0,
                     [(0.0, 0.5), (7.5, 10.0)]),
    # dimension 0 is infeasible with u1 at its midpoint and its lower
    # bound; the slice with u1 at its upper bound supplies its range
    "upper-anchor": (linear_dynamics([[1.0], [1.0]], c=-10.0), [0.0, 0.0], [2.0, 10.0], 1.0,
                     [(0.0, 1.0), (8.0, 10.0)]),
}


def analytic_bound_problem(dynamics, control_lower, control_upper):
    return box_problem(
        m=len(control_lower),
        dynamics=dynamics,
        state_lower=np.array([-1.0]),
        state_upper=np.array([1.0]),
        control_lower=control_lower,
        control_upper=control_upper,
    )


class TestLevelBoundSearch:
    """The range search of a problem with state bounds, reached as the level
    generator reaches it (``oracles.level_ranges``)."""

    @pytest.mark.parametrize("case", list(ANALYTIC_BOUND_CASES))
    def test_bisection_finds_analytic_bounds(self, case):
        dynamics, control_lower, control_upper, dt, expected = ANALYTIC_BOUND_CASES[case]
        problem = analytic_bound_problem(dynamics, control_lower, control_upper)
        bounds = np.stack(level_ranges(problem, 0.0, np.zeros(1), dt), axis=1)
        assert np.allclose(bounds, expected, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("case, anchor", [("lower-anchor", 1), ("upper-anchor", 2)])
    def test_fallback_anchors_share_one_probe_batch(self, case, anchor, monkeypatch):
        # the probe rows of every anchor go in one box test, nine rows per
        # dimension, and no dynamics block is evaluated; dimension 0 falls
        # back to the lower (1) or the upper (2) corner of the control box
        dynamics, control_lower, control_upper, dt, expected = ANALYTIC_BOUND_CASES[case]
        problem = analytic_bound_problem(dynamics, control_lower, control_upper)
        in_box, rows = chattering._in_box, []

        def counted(problem, x_next, *coords):
            rows.append(x_next.shape[0])
            return in_box(problem, x_next, *coords)

        monkeypatch.setattr(chattering, "_in_box", counted)
        monkeypatch.setattr(chattering, "eval_dynamics_batch", None)  # a call would raise
        bounds = np.stack(level_ranges(problem, 0.0, np.zeros(1), dt), axis=1)
        assert np.allclose(bounds, expected, rtol=0.0, atol=1e-6)
        assert rows == [18]
        drift = eval_drift(problem, 0.0, np.zeros(1))
        _, _, found_at = reference_affine_ranges(problem, 0.0, np.zeros(1), dt, [0, 1], drift)
        assert found_at[0] == anchor

    def test_state_pinned_at_upper_bound(self):
        problem = box_problem(
            dynamics=linear_dynamics([[1.0]]),
            state_lower=np.array([-5.0]),
            state_upper=np.array([1.0]),
            control_lower=[0.0],
            control_upper=[10.0],
            x0=[1.0],
        )
        lo, hi = level_ranges(problem, 0.0, np.array([1.0]), 1.0)
        assert lo.tolist() == [0.0]
        assert hi.tolist() == [0.0]

    def test_infeasible_raises(self):
        # any control pushes the state below its floor
        problem = box_problem(
            dynamics=linear_dynamics([[0.0]], c=-1.0),
            state_lower=np.array([0.0]),
            control_lower=[-1.0],
            control_upper=[1.0],
        )
        with pytest.raises(InfeasibleLevels):
            level_ranges(problem, 0.0, np.zeros(1), 1.0)



def random_affine_problem(rng):
    """x' = A u + c - 0.5 x on the state box [-0.4, 0.4]^n: drift c - 0.5 x
    and control matrix A^T."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    a = rng.normal(size=(n, m))
    a[rng.uniform(size=(n, m)) < 0.2] = 0.0  # zero entries bind nothing
    c = 0.5 * rng.normal(size=n)
    lower = rng.uniform(-2.0, 0.0, m)
    return ControlProblem(
        state_dim=n,
        control_dim=m,
        horizon=1.0,
        initial_state=rng.uniform(-0.4, 0.4, n),
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        control_lower=lower,
        control_upper=lower + rng.uniform(0.0, 3.0, m),
        state_lower=np.full(n, -0.4),
        state_upper=np.full(n, 0.4),
        drift=lambda t, x: c - 0.5 * x,
        control_matrix=a.T,
        drift_jacobian=lambda t, x: -0.5 * np.eye(n),
    )


class TestClosedFormLevelRanges:
    def test_matches_bisection(self):
        rng = np.random.default_rng(20172)
        fallbacks = infeasible = 0
        for _ in range(300):
            problem = random_affine_problem(rng)
            x = problem.initial_state
            dt = float(rng.uniform(0.05, 0.5))
            dims = list(range(problem.control_dim))
            try:
                bisected, anchors_used = reference_bound_search(problem, 0.0, x, dt, dims)
            except InfeasibleLevels:
                infeasible += 1
                with pytest.raises(InfeasibleLevels):
                    level_ranges(problem, 0.0, x, dt)
                continue
            closed = np.stack(level_ranges(problem, 0.0, x, dt), axis=1)
            fallbacks += sum(k > 0 for k in anchors_used)
            lower, upper = problem.control_lower, problem.control_upper
            bracket = (upper - lower) * 2.0**-BOUND_SEARCH_ITERATIONS
            assert np.all(np.abs(np.subtract(closed, bisected)) <= bracket[:, None])
            anchors = (0.5 * (lower + upper), lower, upper)
            for d, ends, k in zip(dims, closed, anchors_used):
                for end in ends:
                    u = np.array(anchors[k])
                    u[d] = end
                    x_next = x + dt * (eval_drift(problem, 0.0, x) + u @ problem.control_matrix)
                    assert np.all(np.abs(x_next) <= 0.4 + STEP_FEASIBILITY_TOL)
        assert fallbacks > 0
        assert infeasible > 0

    def test_search_makes_no_dynamics_calls(self, monkeypatch):
        problem = random_affine_problem(np.random.default_rng(3))
        # a call would raise TypeError
        monkeypatch.setattr(chattering, "eval_dynamics_batch", None)
        level_ranges(problem, 0.0, problem.initial_state, 0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replayed_desk_grids_match_bisection(self, seed):
        # the grid over the scalar bisection's ranges, built the long way
        problem, p0, source = feedback_replay(seed)
        partition = TimePartition.uniform(1.0, 200)
        params = GridParams(101, 4096)
        trajectory = propagate_forward(problem, partition, p0, params, source)
        for pt, dt in zip(trajectory.points, partition.deltas.tolist()):
            closed, _ = build_grid(LevelCache(problem, params), pt.t, pt.x, dt)
            ranges, _ = reference_bound_search(problem, pt.t, pt.x, dt, range(problem.control_dim))
            bisected, _, _ = full_width_levels(problem, pt.t, pt.x, dt, params, ranges)
            assert closed.K == bisected.shape[0], f"interval at t={pt.t}"
            assert np.max(np.abs(closed.levels - bisected)) <= 1e-8


def bounded_affine_case(rng):
    """A control-affine problem whose state bounds are lower only, upper
    only or both (some entries infinite), with control matrix entries of
    either sign and some zero, some zero-width controls, and a state
    inside the box; returns the problem, the state and a drift there."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    b = rng.normal(size=(m, n))
    b[rng.uniform(size=(m, n)) < 0.25] = 0.0
    lower = rng.uniform(-2.0, 0.5, m)
    width = rng.uniform(0.0, 3.0, m)
    width[rng.uniform(size=m) < 0.1] = 0.0
    x = rng.uniform(-1.0, 1.0, n)
    sides = int(rng.integers(3))  # 0 lower only, 1 upper only, 2 both
    state_lower = state_upper = None
    if sides != 1:
        state_lower = x - rng.exponential(0.5, n)
        state_lower[rng.uniform(size=n) < 0.2] = -np.inf
    if sides != 0:
        state_upper = x + rng.exponential(0.5, n)
        state_upper[rng.uniform(size=n) < 0.2] = np.inf
    drift = 0.5 * rng.normal(size=n)
    problem = ControlProblem(
        state_dim=n,
        control_dim=m,
        horizon=1.0,
        initial_state=x,
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        control_lower=lower,
        control_upper=lower + width,
        state_lower=state_lower,
        state_upper=state_upper,
        drift=lambda t, x: drift,
        control_matrix=b,
        drift_jacobian=lambda t, x: np.zeros((n, n)),
    )
    return problem, x, drift


def random_dims(rng, m):
    """All control dimensions in order, or a shuffled subset of them."""
    if rng.uniform() < 0.5:
        return list(range(m))
    return rng.permutation(m)[: int(rng.integers(1, m + 1))].tolist()


class TestOnePassSearch:
    """The range search computes every anchor, probe point and dimension in
    one pass; it must return what the anchor-by-anchor search of
    ``oracles.reference_affine_ranges`` returns, bit for bit."""

    def test_matches_the_anchor_loop_bit_for_bit(self):
        rng = np.random.default_rng(1902)
        same = raised = 0
        anchors = collections.Counter()
        sides = collections.Counter()
        for _ in range(3000):
            problem, x, drift = bounded_affine_case(rng)
            terms = chattering.LevelCache(problem, GridParams()).terms
            t, dt = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.0))
            dims = range(problem.control_dim)
            sides[(problem.state_lower is not None, problem.state_upper is not None)] += 1
            try:
                lo, hi, found_at = reference_affine_ranges(problem, t, x, dt, dims, drift)
            except InfeasibleLevels as error:
                with pytest.raises(InfeasibleLevels) as raised_here:
                    chattering._search_ranges(problem, t, x, dt, drift, terms)
                assert str(raised_here.value) == str(error)
                raised += 1
                continue
            one_pass = chattering._search_ranges(problem, t, x, dt, drift, terms)
            assert_bitwise(one_pass[0], lo)
            assert_bitwise(one_pass[1], hi)
            anchors.update(found_at[found_at >= 0].tolist())
            same += 1
        assert same > 1500 and raised > 200
        # fallbacks to the lower and to the upper corner both occur
        assert anchors[1] > 20 and anchors[2] > 20
        assert set(sides) == {(True, False), (False, True), (True, True)}

    # each dimension's range depends on that dimension alone: the oracle
    # searched on a subset of the dimensions returns the full search's
    # entries for them

    def test_subset_returns_the_full_entries(self):
        rng = np.random.default_rng(1903)
        checked = 0
        for _ in range(500):
            problem, x, drift = bounded_affine_case(rng)
            dt = float(rng.uniform(0.05, 1.0))
            try:
                full = level_ranges(problem, 0.0, x, dt)
            except InfeasibleLevels:
                continue
            dims = random_dims(rng, problem.control_dim)
            lo, hi, _ = reference_affine_ranges(problem, 0.0, x, dt, dims, drift)
            assert_bitwise(full[0][dims], lo[dims])
            assert_bitwise(full[1][dims], hi[dims])
            checked += 1
        assert checked > 250

    def test_subset_returns_the_full_entries_on_replayed_desk_states(self):
        problem, _, source = feedback_replay(0)
        rng = np.random.default_rng(5)
        dt = problem.horizon / 200
        for i in range(2, 200, 20):
            t, x = i * dt, source(i, i * dt, problem.initial_state)
            full = level_ranges(problem, t, x, dt)
            dims = random_dims(rng, problem.control_dim)
            lo, hi, _ = reference_affine_ranges(problem, t, x, dt, dims, eval_drift(problem, t, x))
            assert_bitwise(full[0][dims], lo[dims])
            assert_bitwise(full[1][dims], hi[dims])

    def test_subset_without_the_infeasible_dimensions(self):
        # a full search that raises names exactly the dimensions whose own
        # oracle call raises
        rng = np.random.default_rng(1904)
        checked = 0
        for _ in range(1000):
            problem, x, drift = bounded_affine_case(rng)
            dt = float(rng.uniform(0.05, 1.0))
            found, missing = [], []
            for d in range(problem.control_dim):
                try:
                    reference_affine_ranges(problem, 0.0, x, dt, [d], drift)
                    found.append(d)
                except InfeasibleLevels:
                    missing.append(d)
            if not (missing and found):
                continue
            with pytest.raises(InfeasibleLevels, match=re.escape(f"dimension(s) {missing} at")):
                level_ranges(problem, 0.0, x, dt)
            checked += 1
        assert checked > 50


def random_product_problem(rng):
    """x' = c - 0.5 x + u @ B on the state box [-0.4, 0.4]^n.  Controls 0 and 1 are the narrowest, so a tight
    cap leaves them one level each, and they alone move state 0, both the
    same way: state 0 is then moved by no varying control, and can be
    infeasible at every product level although each control alone keeps it
    feasible.  Control 0 is sometimes fixed at a nonzero value, and the last
    control is sometimes gated with an active range around zero."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(3, 6))
    b = rng.normal(size=(m, n))
    b[rng.uniform(size=(m, n)) < 0.3] = 0.0
    b[:2, 0] = rng.uniform(0.5, 1.5, 2)
    b[2:, 0] = 0.0
    c = 0.2 * rng.normal(size=n)
    lower = rng.uniform(-1.0, -0.1, m)
    width = np.concatenate([rng.uniform(0.1, 0.5, 2), rng.uniform(1.0, 2.0, m - 2)])
    if rng.uniform() < 0.3:
        width[0] = 0.0
    gated = None
    if rng.uniform() < 0.5:
        gated = {m - 1: (float(rng.uniform(lower[-1], 0.0)), float(rng.uniform(0.0, 1.0)))}
    return ControlProblem(
        state_dim=n,
        control_dim=m,
        horizon=1.0,
        initial_state=rng.uniform(-0.4, 0.4, n),
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        control_lower=lower,
        control_upper=lower + width,
        state_lower=np.full(n, -0.4),
        state_upper=np.full(n, 0.4),
        gated_dims=gated,
        drift=lambda t, x: c - 0.5 * x,
        control_matrix=b,
        drift_jacobian=lambda t, x: -0.5 * np.eye(n),
    )


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def concatenated(grids):
    """The scalar grids laid end to end as one array, and their sizes."""
    return np.array([v for grid in grids for v in grid]), [len(grid) for grid in grids]


def assert_factored_sweep(problem, t, x, p, levels, f):
    """The factored sweep that ``propagate_forward`` runs, ``g +
    affine_p_dot_f(...)``, against the full form ``g + f @ p`` on the
    oracle's dynamics rows ``f``.  Each form lies within ``(m + n + 2) u``
    (u = eps / 2) times the sum of the absolute terms of the exact value, so
    they differ by at most ``(m + n + 3) eps`` times that sum (one eps of
    slack for second-order terms).  Where the full form's best row leads
    the second best by more than twice that bound, both forms pick it.
    Returns whether the argmin was compared."""
    m, n = problem.control_dim, problem.state_dim
    g = eval_running_cost_batch(problem, t, x, levels)
    drift = eval_drift(problem, t, x)
    full = g + f @ p
    factored = g + affine_p_dot_f(problem, drift, p, levels)
    terms = np.abs(g) + (np.abs(levels) @ np.abs(problem.control_matrix) + np.abs(drift)) @ np.abs(p)
    bound = (m + n + 3) * np.finfo(float).eps * terms
    assert np.all(np.abs(factored - full) <= bound)
    if full.size < 2:
        return False
    best, second = np.partition(full, 1)[:2]
    if second - best <= 2.0 * bound.max():
        return False
    assert np.argmin(factored) == np.argmin(full)
    return True


class TestLeanProductFilter:
    """The generator clears state coordinates by a separable bound and tests
    only the others on every row; the full-width oracle tests every
    coordinate on every row.  The generator gives no dynamics rows back:
    ``propagate_forward`` sweeps the Hamiltonian in factored form."""

    @staticmethod
    def compare(problem, t, x, dt, params, p):
        """Checks the generator against the oracle, and the factored sweep at
        costate ``p`` against the full form on the oracle's rows; returns the
        oracle's keep mask over the whole product and whether the argmin was
        compared, or None when both raise."""
        try:
            levels, f, keep = full_width_levels(problem, t, x, dt, params)
        except InfeasibleLevels:
            with pytest.raises(InfeasibleLevels):
                build_grid(LevelCache(problem, params), t, x, dt)
            return None
        grid, rows = build_grid(LevelCache(problem, params), t, x, dt)
        assert_bitwise(grid.levels, levels)
        assert rows is None
        return keep, assert_factored_sweep(problem, t, x, p, levels, f)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replayed_desk_states(self, seed):
        problem, p0, source = feedback_replay(seed)
        partition = TimePartition.uniform(1.0, 200)
        params = GridParams(101, 4096)
        trajectory = propagate_forward(problem, partition, p0, params, source)
        argmins = 0
        for pt, dt in zip(trajectory.points, partition.deltas.tolist()):
            result = self.compare(problem, pt.t, pt.x, dt, params, pt.p)
            assert result is not None
            argmins += result[1]
        assert argmins >= 190

    def test_random_control_affine_problems(self):
        rng = np.random.default_rng(2017)
        # the costates come from their own stream, so the problems are the
        # ones the level checks always drew
        costates = np.random.default_rng(2018)
        raised = dropped = argmins = 0
        for _ in range(300):
            problem = random_product_problem(rng)
            dt = float(rng.uniform(0.05, 0.5))
            params = GridParams(3, int(rng.integers(1, 3 ** (problem.control_dim - 1) + 1)))
            p = costates.normal(size=problem.state_dim) * 10.0 ** costates.uniform(-2, 2)
            result = self.compare(problem, 0.0, problem.initial_state, dt, params, p)
            raised += result is None
            if result is not None:
                dropped += not result[0].all()
                argmins += result[1]
        assert raised > 0 and dropped > 0 and argmins > 100

    def test_unmoved_coordinate_infeasible_at_every_level(self):
        # controls 0 and 1 (one level each under the cap) alone move state 0;
        # each keeps it feasible with the other at its midpoint, but their
        # lower ends together give -0.8 on every row
        problem = ControlProblem(
            state_dim=2,
            control_dim=3,
            horizon=1.0,
            initial_state=np.zeros(2),
            running_cost_batch=lambda t, x, U: np.zeros(len(U)),
            running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
            control_lower=np.array([-0.5, -0.5, -1.0]),
            control_upper=np.array([0.5, 0.5, 1.0]),
            state_lower=np.full(2, -0.4),
            state_upper=np.full(2, 0.4),
            drift=lambda t, x: np.zeros(2),
            control_matrix=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            drift_jacobian=lambda t, x: np.zeros((2, 2)),
        )
        params = GridParams(3, 3)
        assert list(_coarsen_counts(problem, 3, 3)) == [1, 1, 3]
        assert self.compare(problem, 0.0, np.zeros(2), 1.0, params, np.ones(2)) is None


def count_row_tests(monkeypatch, size):
    """Records how often ``_in_box`` sees ``size`` rows, the product's size
    (the range search tests all its probes in one call of
    nine rows per control dimension: three anchors by three probe points;
    ``size`` must differ from that)."""
    seen = []
    in_box = chattering._in_box

    def counted(problem, x_next, *coords):
        seen.append(x_next.shape[0] == size)
        return in_box(problem, x_next, *coords)

    monkeypatch.setattr(chattering, "_in_box", counted)
    return seen


def lower_bound_for(threshold):
    """A state bound ``s`` with ``s - STEP_FEASIBILITY_TOL == threshold`` in
    floating point, as ``_in_box`` computes it (the closest when none is)."""
    s = threshold + STEP_FEASIBILITY_TOL
    for _ in range(8):
        if s - STEP_FEASIBILITY_TOL < threshold:
            s = np.nextafter(s, np.inf)
        elif s - STEP_FEASIBILITY_TOL > threshold:
            s = np.nextafter(s, -np.inf)
    return s


class TestSeparableBound:
    """Both branches of the box filter's bound: a coordinate the bound
    clears gets no row test, and one it cannot clear is tested on every row,
    down to the last bit of the threshold."""

    def test_rows_on_the_threshold_and_one_ulp_beyond(self, monkeypatch):
        # x' = u0 + d u1 from x = 0 with dt = 1, where d is one ulp at the
        # threshold T = state_lower - STEP_FEASIBILITY_TOL and u0 starts one
        # ulp below T: u1 in {0, 1, 2} puts rows at T - d, T and T + d (exact
        # arithmetic), and the range search keeps both control ranges whole
        threshold = -0.5 - STEP_FEASIBILITY_TOL
        d = threshold - np.nextafter(threshold, -np.inf)
        problem = ControlProblem(
            state_dim=1,
            control_dim=2,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost_batch=lambda t, x, U: np.zeros(len(U)),
            running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
            control_lower=np.array([threshold - d, 0.0]),
            control_upper=np.array([0.25, 2.0]),
            state_lower=np.array([-0.5]),
            drift=lambda t, x: np.zeros(1),
            control_matrix=np.array([[1.0], [d]]),
            drift_jacobian=lambda t, x: np.zeros((1, 1)),
        )
        assert problem.state_lower[0] - STEP_FEASIBILITY_TOL == threshold
        params = GridParams(3, 9)
        seen = count_row_tests(monkeypatch, 9)
        keep, _ = TestLeanProductFilter.compare(problem, 0.0, np.zeros(1), 1.0, params, np.ones(1))
        assert sum(seen) == 2  # the oracle's and the generator's
        # rows (u0 = threshold - d, u1 = 0, 1, 2) are the first three
        assert keep.tolist() == [False, True, True] + [True] * 6

    def test_desk_initial_state_needs_no_row_test(self, monkeypatch):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        seen = count_row_tests(monkeypatch, 4096)
        cache = LevelCache(problem, GridParams(101, 4096))
        grid, rows = build_grid(cache, 0.0, problem.initial_state, problem.horizon / 200)
        assert grid.K == 4096 and rows is None
        assert seen and not any(seen)

    def test_state_bounds_on_the_extreme_rows(self):
        # bounds placed as the rows compute them, one ulp inside the lowest
        # and the highest next value of each coordinate: the extreme rows
        # must go, as the full row test drops them, although the bound's own
        # sums (in another order than the rows' product) may put the extreme
        # a last bit inside the box
        rng = np.random.default_rng(41)
        costates = np.random.default_rng(42)
        dropped = 0
        for _ in range(300):
            base = random_product_problem(rng)
            dt = float(rng.uniform(0.05, 0.5))
            params = GridParams(3, 3 ** base.control_dim)
            x = base.initial_state
            free = dataclasses.replace(base, state_lower=None, state_upper=None)
            levels = build_grid(LevelCache(free, params), 0.0, x, dt)[0].levels
            x_next = x + dt * (eval_drift(base, 0.0, x) + levels @ base.control_matrix)
            low = np.nextafter(x_next.min(axis=0), np.inf)
            high = np.nextafter(x_next.max(axis=0), -np.inf)
            lower = np.where(low < x - 1e-8, [lower_bound_for(v) for v in low], -1.0)
            upper = np.where(high > x + 1e-8, [-lower_bound_for(-v) for v in high], 1.0)
            problem = dataclasses.replace(base, state_lower=lower, state_upper=upper)
            p = costates.normal(size=problem.state_dim)
            result = TestLeanProductFilter.compare(problem, 0.0, x, dt, params, p)
            dropped += result is not None and not result[0].all()
        assert dropped > 150

    def test_grid_ends_give_the_per_value_sums(self, monkeypatch):
        # the bound's three sums, taken from each scalar grid's first and
        # last value, are the per-value reduceat sums bit for bit, signs of
        # zeros included: gated grids hold 0, entries of B are negative,
        # 0.0 or -0.0, and grids of one or two values may start at -0.0.
        # No product here underflows to zero: there a zero inside a grid
        # could tie with one of the other sign at its end, which only the
        # sign of a zero sum could show, and no comparison sees that
        rng = np.random.default_rng(1905)
        seen = []
        open_coords = chattering._open_coords

        def recorded(problem, x_i, dt, drift, *sums):
            seen.append(sums)
            return open_coords(problem, x_i, dt, drift, *sums)

        monkeypatch.setattr(chattering, "_open_coords", recorded)
        signed_zeros = collections.Counter()
        for _ in range(1000):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            b = rng.normal(size=(m, n))
            zero = rng.uniform(size=(m, n))
            b[zero < 0.4] = 0.0
            b[zero < 0.2] = -0.0
            lower = rng.uniform(-2.0, 1.0, m)
            lower[rng.uniform(size=m) < 0.2] = -0.0
            upper = lower + rng.uniform(0.0, 2.0, m) * (rng.uniform(size=m) > 0.1)
            gated = {
                j: (float(rng.uniform(lower[j], 0.0)), float(rng.uniform(0.0, upper[j])))
                for j in range(m) if lower[j] <= 0.0 <= upper[j] and rng.uniform() < 0.5
            }
            counts = rng.integers(1, 6, m)
            problem = ControlProblem(
                state_dim=n, control_dim=m, horizon=1.0, initial_state=np.zeros(n),
                running_cost_batch=lambda t, x, U: np.zeros(len(U)), control_lower=lower, control_upper=upper,
                running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
                state_lower=np.full(n, -1.0), state_upper=np.full(n, 1.0), gated_dims=gated,
                drift=lambda t, x: np.zeros(n), control_matrix=b,
                drift_jacobian=lambda t, x: np.zeros((n, n)),
            )
            grids = [chattering._scalar_grid(gated.get(j), j, lower[j], upper[j], counts[j])
                     for j in range(m)]
            values, sizes = concatenated(grids)
            levels = chattering._product(problem, lower, upper, counts)
            seen.clear()
            chattering._affine_in_box(problem, np.zeros(n), 0.1, np.zeros(n), levels, grids)
            (sums,) = seen
            for got, expected in zip(sums, reference_separable_sums(values, sizes, b)):
                assert_bitwise(got, expected)
            products = values[:, None] * b[np.repeat(np.arange(m), sizes)]
            signed_zeros.update(np.signbit(products[products == 0.0]).tolist())
        assert signed_zeros[True] > 500 and signed_zeros[False] > 500

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replayed_feedback_keep_masks(self, seed, monkeypatch):
        # every filter of a replayed feedback run keeps the levels that the
        # bound from the per-value sums keeps
        problem, p0, source = feedback_replay(seed)
        B = problem.control_matrix
        affine_in_box = chattering._affine_in_box
        masks = []

        def checked(problem, x_i, dt, drift, levels, grids):
            keep = affine_in_box(problem, x_i, dt, drift, levels, grids)
            sums = reference_separable_sums(*concatenated(grids), B)
            open_ = chattering._open_coords(problem, x_i, dt, drift, *sums)
            expected = chattering._in_box(problem, x_i[open_] + dt * (drift + levels @ B)[:, open_], open_)
            if keep is None:  # the bound keeps every level without a row test
                assert not open_.any() and expected.all()
            else:
                assert_bitwise(keep, expected)
            masks.append(expected)
            return keep

        monkeypatch.setattr(chattering, "_affine_in_box", checked)
        propagate_forward(problem, TimePartition.uniform(1.0, 200), p0, GridParams(101, 4096), source)
        assert len(masks) > 100 and any(not keep.all() for keep in masks)


#: range ends: signed zeros, or any finite value of moderate size
GRID_ENDS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0))


@st.composite
def scalar_grid_cases(draw):
    """A scalar grid's gate (None, or an active range that straddles, touches
    or misses 0), its range ends (maybe equal, maybe -0.0) and its count."""
    lo, hi = sorted([draw(GRID_ENDS), draw(GRID_ENDS)])
    if draw(st.booleans()):
        hi = lo
    gated = tuple(sorted([draw(GRID_ENDS), draw(GRID_ENDS)])) if draw(st.booleans()) else None
    return gated, lo, hi, draw(st.integers(1, 101))


class TestScalarGrids:
    """Each dimension's grid, in Python floats, is the oracle's numpy grid
    bit for bit."""

    @given(scalar_grid_cases())
    @settings(max_examples=400, deadline=None)
    @example((None, -0.0, -0.0, 5))
    @example((None, -0.0, 3.0, 1))
    @example((None, -0.0, 3.0, 2))
    @example((None, -0.0, 3.0, 101))
    @example((None, 0.0, 5e-324, 4))  # the step underflows to zero
    @example(((-2.0, 3.0), -1.0, 5.0, 7))  # straddles 0
    @example(((-2.0, -0.0), -1.0, 1.0, 40))  # touches 0 from below at -0.0
    @example(((-0.0, 3.0), -1.0, 5.0, 3))  # touches 0 from above at -0.0
    @example(((0.0, 3.0), -0.0, 5.0, 1))
    @example(((2.0, 3.0), 0.0, 5.0, 4))  # misses 0
    @example(((2.0, 3.0), 0.5, 1.0, 3))  # admits nothing
    def test_matches_the_oracle_bit_for_bit(self, case):
        gated, lo, hi, count = case
        try:
            expected = reference_scalar_grid(gated, 0, lo, hi, count)
        except InfeasibleLevels:
            with pytest.raises(InfeasibleLevels):
                chattering._scalar_grid(gated, 0, lo, hi, count)
            return
        grid = chattering._scalar_grid(gated, 0, lo, hi, count)
        assert all(type(v) is float for v in grid)
        assert_bitwise(np.array(grid), expected)


class TestGenerateLevels:
    def test_uniform_grid_endpoints(self):
        problem = box_problem()
        grid, _ = build_grid(LevelCache(problem, GridParams(5, 4096)), 0.0, np.zeros(1), 0.1)
        assert np.array_equal(grid.levels[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_degenerate_grid_at_bound(self):
        problem = box_problem(
            dynamics=linear_dynamics([[1.0]]),
            state_lower=np.array([-5.0]),
            state_upper=np.array([1.0]),
            control_lower=[0.0],
            control_upper=[10.0],
            x0=[1.0],
        )
        grid, _ = build_grid(LevelCache(problem, GridParams(5, 4096)), 0.0, np.array([1.0]), 1.0)
        assert grid.K == 1
        assert grid.levels[0, 0] == 0.0

    def test_gated_dimension_layout(self):
        problem = box_problem(
            control_lower=[0.0], control_upper=[14.0], gated_dims={0: (7.0, 14.0)}
        )
        grid, _ = build_grid(LevelCache(problem, GridParams(5, 4096)), 0.0, np.zeros(1), 0.1)
        vals = grid.levels[:, 0]
        assert vals[0] == 0.0
        assert np.all(vals[1:] >= 7.0) and np.all(vals[1:] <= 14.0)
        assert vals[1] == 7.0 and vals[-1] == 14.0
        assert grid.K == 5

    def test_cap_coarsens_uniformly(self):
        problem = box_problem(m=2, control_lower=[-1.0, -1.0], control_upper=[1.0, 1.0])
        grid, _ = build_grid(LevelCache(problem, GridParams(101, 4096)), 0.0, np.zeros(1), 0.1)
        assert grid.K == 64 * 64
        for j in range(2):
            assert len(np.unique(grid.levels[:, j])) == 64

    def test_lexicographic_order(self):
        problem = box_problem(m=2, control_lower=[0.0, 0.0], control_upper=[1.0, 1.0])
        grid, _ = build_grid(LevelCache(problem, GridParams(3, 4096)), 0.0, np.zeros(1), 0.1)
        rows = [tuple(r) for r in grid.levels]
        assert rows == sorted(rows)

    def test_every_level_respects_one_step_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = 2, 2
            A = rng.uniform(-1, 1, (n, m))
            problem = box_problem(
                n=n,
                m=m,
                dynamics=linear_dynamics(A.T, a=-0.5),
                state_lower=np.full(n, -0.4),
                state_upper=np.full(n, 0.4),
                control_lower=[-3.0, -3.0],
                control_upper=[3.0, 3.0],
                x0=rng.uniform(-0.3, 0.3, n),
            )
            dt = float(rng.uniform(0.05, 0.3))
            x = np.asarray(problem.initial_state)
            grid, _ = build_grid(LevelCache(problem, GridParams(7, 4096)), 0.0, x, dt)
            for level in grid.levels:
                x_next = x + dt * (-0.5 * x + A @ level)
                assert np.all(x_next >= problem.state_lower - 1e-9)
                assert np.all(x_next <= problem.state_upper + 1e-9)

    def test_levels_stay_inside_control_bounds(self):
        problem = box_problem(
            m=3,
            control_lower=[-2.0, 0.0, 1.0],
            control_upper=[2.0, 5.0, 4.0],
        )
        grid, _ = build_grid(LevelCache(problem, GridParams(4, 4096)), 0.0, np.zeros(1), 0.1)
        assert np.all(grid.levels >= problem.control_lower - 1e-12)
        assert np.all(grid.levels <= problem.control_upper + 1e-12)

    def test_coarsen_counts_under_pressure(self):
        # 29 equal-width dims, cap 4096 = 2^12: twelve get a second point
        problem = box_problem(
            m=29, control_lower=np.zeros(29), control_upper=np.ones(29)
        )
        counts = _coarsen_counts(problem, 101, 4096)
        assert int(np.prod(counts)) == 4096
        assert counts.max() - counts.min() <= 1
        assert list(counts[:12]) == [2] * 12  # equal widths: tie-break by index

    def test_coarsen_counts_prefer_wide_ranges(self):
        problem = box_problem(
            m=3,
            control_lower=np.zeros(3),
            control_upper=np.array([1.0, 10.0, 5.0]),
        )
        counts = _coarsen_counts(problem, 101, 8)
        # widest dimension first: 10 > 5 > 1
        assert counts[1] >= counts[2] >= counts[0]
        assert int(np.prod(counts)) <= 8

    def test_coarsen_counts_no_pressure(self):
        one = box_problem(m=1)
        assert list(_coarsen_counts(one, 101, 4096)) == [101]
        two = box_problem(m=2, control_lower=[-1.0, -1.0], control_upper=[1.0, 1.0])
        assert list(_coarsen_counts(two, 5, 4096)) == [5, 5]

    def test_coarsen_counts_skip_zero_width_dimension(self):
        # a fixed dimension holds one value, so it must not take cap share
        problem = box_problem(m=2, control_lower=[-1.0, 0.5], control_upper=[1.0, 0.5])
        assert list(_coarsen_counts(problem, 101, 101)) == [101, 1]
        grid, _ = build_grid(LevelCache(problem, GridParams(101, 101)), 0.0, np.zeros(1), 0.1)
        assert grid.K == 101
        assert np.all(grid.levels[:, 1] == 0.5)


class TestLevelMemos:
    """The state-independent level work is done once per ``LevelCache`` and
    shared by its builds."""

    def test_lqr_propagation_builds_one_grid(self, monkeypatch):
        problem = build_lqr()
        calls = {"scalar": 0, "levels": 0}
        scalar_grid, generate = chattering._scalar_grid, chattering.generate_levels_with_dynamics

        def counted_scalar(*args):
            calls["scalar"] += 1
            return scalar_grid(*args)

        def counted_levels(*args):
            calls["levels"] += 1
            return generate(*args)

        monkeypatch.setattr(chattering, "_scalar_grid", counted_scalar)
        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", counted_levels)
        partition = TimePartition.uniform(problem.horizon, 100)
        traj = propagate_forward(problem, partition, np.zeros(1), GridParams())
        assert len(traj.points) == 101
        assert calls == {"scalar": 1, "levels": 100}

    def test_unbounded_grid_is_shared_and_read_only(self):
        problem = build_lqr()
        params = GridParams()
        cache = chattering.LevelCache(problem, params)
        first, f_first = build_grid(cache, 0.0, np.array([10.0]), 0.01)
        second, f_second = build_grid(cache, 0.7, np.array([-3.0]), 0.02)
        assert f_first is None and f_second is None
        assert second is first is cache.box_grid
        assert not first.levels.flags.writeable
        with pytest.raises(ValueError):
            first.levels[0, 0] = 0.0
        fresh, _ = build_grid(LevelCache(problem, params), 0.0, np.array([10.0]), 0.01)
        assert fresh is not first
        assert fresh.levels.tobytes() == first.levels.tobytes()

    def test_unbounded_grid_shared_within_one_cache(self):
        base = dict(m=2, control_lower=[-1.0, 0.0], control_upper=[1.0, 4.0])
        x = np.zeros(1)

        def levels(params=GridParams(5, 4096), **changes):
            problem = box_problem(**{**base, **changes})
            cache = chattering.LevelCache(problem, params)
            grid = build_grid(cache, 0.0, x, 0.1)[0]
            assert build_grid(cache, 0.5, x, 0.2)[0] is grid
            return grid

        plain = levels()
        # a distinct but equal problem gets an equal grid of its own
        again = levels()
        assert again is not plain and again.levels.tobytes() == plain.levels.tobytes()
        others = [
            levels(gated_dims={1: (2.0, 4.0)}),
            levels(control_upper=[1.0, 3.0]),
            levels(params=GridParams(4, 4096)),
            levels(params=GridParams(5, 16)),
        ]
        for other in others:
            assert other.levels.tobytes() != plain.levels.tobytes()
        assert not np.any(others[0].levels[:, 1] == 1.0)  # gated: {0} + [2, 4]

    def test_nonpositive_dt_raises_on_warm_memo(self):
        problem = box_problem()
        cache = chattering.LevelCache(problem, GridParams())
        cache.memo = {}
        build_grid(cache, 0.0, np.zeros(1), 0.1)
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError):
                build_grid(cache, 0.0, np.zeros(1), dt)

    def test_inadmissible_gated_dimension_raises_every_call(self):
        # active range above the control bounds, and zero outside them
        problem = box_problem(
            control_lower=[0.5], control_upper=[1.0], gated_dims={0: (2.0, 3.0)}
        )
        cache = LevelCache(problem, GridParams())
        for shared in (LevelCache(problem, GridParams()), cache, cache):
            with pytest.raises(InfeasibleLevels):
                build_grid(shared, 0.0, np.zeros(1), 0.1)

    def test_counts_read_only_and_computed_once_per_cache(self, monkeypatch):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 20)
        params = GridParams()
        calls = []
        coarsen = chattering._coarsen_counts

        def counted(*args):
            calls.append(args)
            return coarsen(*args)

        monkeypatch.setattr(chattering, "_coarsen_counts", counted)
        cache = chattering.LevelCache(problem, params)
        assert not cache.counts.flags.writeable
        with pytest.raises(ValueError):
            cache.counts[0] = 7
        propagate_forward(problem, TimePartition.uniform(1.0, 20), np.zeros(20), params, cache=cache)
        assert calls == [(problem, params.k_per_dim, params.cap)]
        # a propagation without a cache builds one
        propagate_forward(problem, TimePartition.uniform(1.0, 20), np.zeros(20), params)
        assert len(calls) == 2

    def test_mismatched_cache_refused(self):
        # propagate_forward, the one entry that takes a cache, refuses it
        # before the first interval, so the error carries no interval tag
        problem, params = box_problem(state_upper=np.ones(1)), GridParams(5, 64)
        cache = LevelCache(problem, params)
        partition = TimePartition.uniform(1.0, 4)
        equal_problem = dataclasses.replace(problem)
        for other, other_params in ((equal_problem, params), (problem, GridParams(5, 32))):
            message = "^the LevelCache was built for another problem or other GridParams$"
            with pytest.raises(ValueError, match=message) as raised:
                propagate_forward(other, partition, np.zeros(1), other_params, cache=cache)
            assert not hasattr(raised.value, "interval_index")
        # an equal GridParams is accepted
        propagate_forward(problem, partition, np.zeros(1), GridParams(5, 64), cache=cache)


def memo_cache(problem, params):
    """A ``LevelCache`` with a memo, as ``solve`` builds it."""
    cache = chattering.LevelCache(problem, params)
    cache.memo = {}
    return cache


class TestIntervalMemo:
    """A cache with a memo keeps, per interval, the state and the level work
    done there; the same interval from the same state, bit for bit, skips
    the range search and gives the same grid."""

    @staticmethod
    def count_searches(monkeypatch):
        calls = []
        search = chattering._search_ranges

        def counted(*args):
            calls.append(1)
            return search(*args)

        monkeypatch.setattr(chattering, "_search_ranges", counted)
        return calls

    @pytest.mark.parametrize("filtered", [True, False])
    def test_same_state_hits_and_one_ulp_misses(self, filtered, monkeypatch):
        # a filtered grid is a row subset kept by the entry's mask; an
        # unfiltered one is the cache's product buffer itself
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 2.0, 20)
        # states on the zero floor make the admissibility filter drop levels
        x[rng.integers(0, 20, 6)] = 0.0
        if not filtered:
            x = problem.initial_state.copy()
        t, dt, params = 0.3, 0.005, GridParams()
        plain, _ = build_grid(LevelCache(problem, params), t, x, dt)
        assert (plain.K < params.cap) == filtered
        nudged = x.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)
        plain_nudged, _ = build_grid(LevelCache(problem, params), t, nudged, dt)
        searches = self.count_searches(monkeypatch)
        cache = memo_cache(problem, params)
        memo = cache.memo
        for expected_searches in (1, 1):
            grid, rows = build_grid(cache, t, x.copy(), dt)
            assert len(searches) == expected_searches and len(memo) == 1
            assert_bitwise(grid.levels, plain.levels)
            assert not grid.levels.flags.writeable and rows is None
            assert (grid.levels is cache.levels) != filtered
            assert (memo[(t, dt)][3] is None) != filtered
        grid, _ = build_grid(cache, t, nudged, dt)
        assert len(searches) == 2 and len(memo) == 1
        assert memo[(t, dt)][0] == nudged.tobytes()
        assert_bitwise(grid.levels, plain_nudged.levels)
        # another interval from the same state is another entry
        build_grid(cache, t + dt, nudged, dt)
        assert len(searches) == 3 and len(memo) == 2

    def test_infeasible_build_leaves_no_entry(self):
        # x' = 1 against the upper bound 0: from x = 0 no level is admissible
        problem = box_problem(dynamics=linear_dynamics([[0.0]], c=1.0), state_upper=np.zeros(1))
        cache = memo_cache(problem, GridParams())
        build_grid(cache, 0.0, np.array([-1.0]), 0.1)
        assert len(cache.memo) == 1
        with pytest.raises(InfeasibleLevels):
            build_grid(cache, 0.0, np.zeros(1), 0.1)
        assert cache.memo == {}


class TestGridRanges:
    """The grids that ``generate_levels_with_dynamics`` returns carry the
    ranges they span, which a pricing hook searches: the control bounds for
    the whole-box grid; the searched ranges otherwise, with or without a
    pricing hook, and on a memo hit those of the entry."""

    def test_unbounded_grid_spans_the_control_bounds(self):
        problem = build_lqr()
        grid, _ = build_grid(LevelCache(problem, GridParams()), 0.0, problem.initial_state, 0.01)
        assert_bitwise(grid.lo, problem.control_lower)
        assert_bitwise(grid.hi, problem.control_upper)

    def test_whole_box_grid_spans_the_control_bounds(self):
        problem = random_affine_problem(np.random.default_rng(1))
        problem = dataclasses.replace(
            problem, state_lower=np.full(problem.state_dim, -100.0),
            state_upper=np.full(problem.state_dim, 100.0),
        )
        cache = memo_cache(problem, GridParams(5, 64))
        for _ in range(2):
            grid, _ = build_grid(cache, 0.0, problem.initial_state, 0.1)
            assert grid.levels is cache.levels
            assert_bitwise(grid.lo, problem.control_lower)
            assert_bitwise(grid.hi, problem.control_upper)

    @pytest.mark.parametrize("memo", [True, False])
    def test_searched_grid_spans_the_searched_ranges(self, memo):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        problem = constant_pricing(problem, lambda t, x, p, lo, hi: np.empty((0, len(lo))))
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 2.0, 20)
        x[rng.integers(0, 20, 6)] = 0.0
        t, dt, params = 0.3, 0.005, GridParams()
        lo, hi = level_ranges(problem, t, x, dt)
        assert np.any(hi < problem.control_upper)
        # with a memo the second build is a hit, which takes the entry's
        # ends; without one it searches again
        cache = memo_cache(problem, params) if memo else chattering.LevelCache(problem, params)
        first, _ = build_grid(cache, t, x, dt)
        assert_bitwise(first.lo, lo)
        assert_bitwise(first.hi, hi)
        assert not (first.lo.flags.writeable or first.hi.flags.writeable)
        assert np.all(first.levels >= first.lo) and np.all(first.levels <= first.hi)
        lo, hi = first.lo, first.hi
        again, _ = build_grid(cache, t, x, dt)
        assert (again.lo is lo and again.hi is hi) == memo
        assert_bitwise(again.lo, lo)
        assert_bitwise(again.hi, hi)

    def test_ranges_kept_without_a_hook(self):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        assert problem.hamiltonian_argmin is None
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 2.0, 20)
        x[rng.integers(0, 20, 6)] = 0.0
        t, dt, params = 0.3, 0.005, GridParams()
        searched_lo, searched_hi = level_ranges(problem, t, x, dt)
        assert np.any(searched_hi < problem.control_upper)
        cache = memo_cache(problem, params)
        for _ in range(2):  # a miss, then a hit
            grid, _ = build_grid(cache, t, x, dt)
            assert_bitwise(grid.lo, searched_lo)
            assert_bitwise(grid.hi, searched_hi)
            # the memo keeps the grid's ends, which a hit builds its grids from
            _, lo, hi, _ = cache.memo[(t, dt)]
            assert grid.lo is lo and grid.hi is hi


def zero_gated_problem(rng):
    """``random_product_problem`` with its last control gated from zero to
    its upper bound: the zero level merges into the active range while the
    searched range holds zero and stands apart once it does not, so the
    grid sizes change from state to state."""
    problem = random_product_problem(rng)
    m = problem.control_dim
    return dataclasses.replace(problem, gated_dims={m - 1: (0.0, float(problem.control_upper[m - 1]))})


def next_chain_state(rng, problem, x):
    """The next state of a chain of builds: the same state again, one
    coordinate moved, a fresh draw, or a draw with coordinates on a bound."""
    n = problem.state_dim
    kind = int(rng.integers(4))
    if kind == 0:
        return x.copy()
    if kind == 1:
        moved = x.copy()
        moved[rng.integers(n)] = rng.uniform(-0.4, 0.4)
        return moved
    drawn = rng.uniform(-0.4, 0.4, n)
    if kind == 3:
        drawn[rng.uniform(size=n) < 0.5] = -0.4
        drawn[rng.uniform(size=n) < 0.2] = 0.4
    return drawn


def box_steps_inside(problem, t, x, dt):
    """Whether the separable bound over each control's bounds
    (``reference_separable_sums``) clears every state coordinate: the whole
    control box steps inside the state box, so the search keeps every range
    whole and the filter every level."""
    lo, hi = problem.control_lower, problem.control_upper
    sums = reference_separable_sums(np.stack([lo, hi], axis=1).ravel(), [2] * lo.size,
                                    problem.control_matrix)
    return not chattering._open_coords(problem, x, dt, eval_drift(problem, t, x), *sums).any()


def assert_whole_box(problem, grid):
    """The grid of a box-steps-inside interval spans the control bounds and
    keeps the whole product; its levels are checked against a fresh build
    by the caller."""
    assert_bitwise(grid.lo, problem.control_lower)
    assert_bitwise(grid.hi, problem.control_upper)
    sizes = [np.unique(column).size for column in grid.levels.T]
    assert grid.K == np.prod(sizes)


def chain_path(before, cache, grid, steps_inside):
    """Which way a build with ``cache`` made its grid, from the cache's
    ``(grids, levels)`` before the build, the cache after it and whether
    the whole control box steps inside the state box there.  Checks that
    the product buffer is the one before exactly when the level count K
    did not change, and that every grid shares the buffer or is a row
    subset of it."""
    grids, levels = before
    assert grid.levels is cache.levels or grid.levels.base is None
    if steps_inside:
        return "box steps inside"
    if grids is None:
        return "first"
    assert (cache.levels is levels) == (cache.levels.shape == levels.shape)
    values, sizes = concatenated(grids)
    cache_values, cache_sizes = concatenated(cache.grids)
    if sizes != cache_sizes:
        return "sizes changed"
    differs = cache_values.view(np.int64) != values.view(np.int64)
    return "rewritten" if differs.any() else "reused"


def fresh_build(problem, t, x, dt, params):
    """A build with a fresh cache, and whether the whole control box steps
    inside the state box there (``box_steps_inside``)."""
    grid, _ = build_grid(LevelCache(problem, params), t, x, dt)
    return grid, box_steps_inside(problem, t, x, dt)


def run_chain(rng, paths):
    """Builds a chain of eight states on a random problem twice, with one
    ``LevelCache`` with a memo for the chain and with a fresh one per build,
    and checks that both give the same grid bit for bit and raise together,
    and that where the box steps inside the grid spans the control bounds
    (``assert_whole_box``).  Then builds the chain's intervals again from
    the same states in a shuffled order: memo hits taken after builds at
    other intervals, some of them after a box-steps-inside build, each
    checked against the fresh build the same way.  Counts in ``paths``
    which way each chained grid was made (``chain_path``, with "hit, "
    before it on a hit), and as "hit after box steps inside" a hit
    elsewhere right after a box-steps-inside build."""
    problem = zero_gated_problem(rng)
    dt = float(rng.uniform(0.05, 0.5))
    params = GridParams(3, int(rng.integers(1, 3 ** problem.control_dim + 1)))
    cache = memo_cache(problem, params)
    x = problem.initial_state
    built, whole_box = [], False

    def build(t, x, fresh, label):
        fresh, steps_inside = fresh
        before = (cache.grids, cache.levels)
        chained, _ = build_grid(cache, t, x, dt)
        assert_bitwise(chained.levels, fresh.levels)
        assert_bitwise(chained.lo, fresh.lo)
        assert_bitwise(chained.hi, fresh.hi)
        if steps_inside:
            assert_whole_box(problem, chained)
        path = chain_path(before, cache, chained, steps_inside)
        paths[label + path] += 1
        return steps_inside

    for k in range(8):
        x = next_chain_state(rng, problem, x)
        t = 0.1 * k
        try:
            fresh = fresh_build(problem, t, x, dt, params)
        except InfeasibleLevels:
            with pytest.raises(InfeasibleLevels):
                build_grid(cache, t, x, dt)
            paths["raised"] += 1
            continue
        whole_box = build(t, x, fresh, "")
        built.append((t, x))
    for i in rng.permutation(len(built)):
        t, x = built[i]
        assert cache.memo[(t, dt)][0] == x.tobytes()
        after_whole_box = whole_box
        whole_box = build(t, x, fresh_build(problem, t, x, dt, params), "hit, ")
        paths["hit after box steps inside"] += after_whole_box and not whole_box


class TestIncrementalBuild:
    """A build with a ``LevelCache`` keeps the scalar grids and the product
    columns whose ranges did not move since the cache's last build, and
    gives the fresh build's grid bit for bit."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_chained_builds_match_fresh_builds(self, seed):
        run_chain(np.random.default_rng(seed), collections.Counter())

    def test_chains_take_every_path(self):
        rng = np.random.default_rng(2017)
        paths = collections.Counter()
        for _ in range(60):
            run_chain(rng, paths)
        expected = {"raised", "box steps inside", "first", "sizes changed", "reused", "rewritten"}
        expected |= {"hit, " + path for path in expected - {"raised", "first"}}
        expected.add("hit after box steps inside")
        assert set(paths) == expected and min(paths.values()) >= 3, paths

    def test_a_signed_zero_end_rewrites_its_column(self):
        # 0.0 == -0.0, but a one-value grid at -0.0 is another grid bit for bit
        problem = box_problem(m=2)
        cache = chattering.LevelCache(problem, GridParams(2, 2))
        hi, counts = np.array([1.0, 1.0]), np.array([1, 2])
        chattering._product(problem, np.array([0.0, -1.0]), hi, counts, cache)
        levels = chattering._product(problem, np.array([-0.0, -1.0]), hi, counts, cache)
        assert np.signbit(levels[:, 0]).all() and levels[:, 1].tolist() == [-1.0, 1.0]

    def test_replayed_feedback_builds_match_fresh_builds(self, monkeypatch):
        problem, p0, source = feedback_replay(0)
        params = GridParams(101, 4096)
        generate, built = chattering.generate_levels_with_dynamics, []
        paths = collections.Counter()

        def recorded(cache, t, x, dt, drift):
            before = (cache.grids, cache.levels)
            grid_out = generate(cache, t, x, dt, drift)
            # compare now: the next build may write over this grid
            fresh, steps_inside = fresh_build(problem, t, x, dt, params)
            paths[chain_path(before, cache, grid_out[0], steps_inside)] += 1
            if steps_inside:
                assert_whole_box(problem, grid_out[0])
            assert_bitwise(grid_out[0].levels, fresh.levels)
            built.append(t)
            return grid_out

        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", recorded)
        propagate_forward(problem, TimePartition.uniform(1.0, 200), p0, params, source)
        monkeypatch.undo()
        assert len(built) == 200
        assert {"box steps inside", "reused", "rewritten"} <= set(paths), paths

    def test_builds_of_equal_size_share_one_buffer(self, monkeypatch):
        problem, p0, source = feedback_replay(1)
        generate, buffers = chattering.generate_levels_with_dynamics, []

        def recorded(cache, t, x, dt, drift):
            grid_out = generate(cache, t, x, dt, drift)
            if cache.levels is not None:
                assert cache.levels.shape == (4096, problem.control_dim)
                buffers.append(cache.levels)
            return grid_out

        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", recorded)
        propagate_forward(problem, TimePartition.uniform(1.0, 200), p0, GridParams(), source)
        assert len(buffers) > 100
        assert all(buffer is buffers[0] for buffer in buffers)

    def test_batch_hook_gets_the_read_only_column_major_buffer(self):
        # the sweep hands the running cost the grid's levels, which at the
        # initial state are the whole product, the cache's buffer itself
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 0.005, 1)
        cost, seen = problem.running_cost_batch, []

        def hook(t, x, controls):
            seen.append((controls.shape[0], controls.flags.f_contiguous, controls.flags.writeable))
            return cost(t, x, controls)

        problem = dataclasses.replace(problem, running_cost_batch=hook)
        cache = chattering.LevelCache(problem, GridParams())
        propagate_forward(problem, TimePartition.uniform(0.005, 1), np.zeros(20), GridParams(), cache=cache)
        assert seen == [(4096, True, False)]
        assert cache.levels.flags.f_contiguous and not cache.levels.flags.writeable

    def test_grid_kept_past_the_next_build_is_overwritten(self):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        params = GridParams()
        cache = chattering.LevelCache(problem, params)
        x_floor = problem.initial_state.copy()
        x_floor[[0, 3, 7]] = 0.0
        first, _ = build_grid(cache, 0.0, problem.initial_state, 0.005)
        assert first.K == 4096 and first.levels is cache.levels
        as_built = first.levels.copy()
        second, _ = build_grid(cache, 0.5, x_floor, 0.005)
        fresh, _ = build_grid(LevelCache(problem, params), 0.5, x_floor, 0.005)
        assert_bitwise(second.levels, fresh.levels)
        assert cache.levels is first.levels
        assert not np.array_equal(first.levels, as_built)


class TestWholeBoxGrid:
    """Where the separable bound clears every state coordinate over the
    whole control box, the searched build gives the whole-box grid: the
    ranges are the control bounds and the filter keeps every level."""

    def test_box_steps_inside_gives_the_whole_box_grid(self):
        rng = np.random.default_rng(7)
        inside = outside = 0
        for _ in range(300):
            problem = random_affine_problem(rng)
            # a wider state box, so that some whole control boxes step inside
            problem = dataclasses.replace(
                problem, state_lower=np.full(problem.state_dim, -1.5),
                state_upper=np.full(problem.state_dim, 1.5),
            )
            x = problem.initial_state
            dt = float(rng.uniform(0.05, 0.5))
            params = GridParams(5, 64)
            steps_inside = box_steps_inside(problem, 0.0, x, dt)
            try:
                grid, _ = build_grid(LevelCache(problem, params), 0.0, x, dt)
            except InfeasibleLevels:
                assert not steps_inside
                continue
            if steps_inside:
                assert_whole_box(problem, grid)
                assert_bitwise(grid.levels, chattering.LevelCache(problem, params).box_grid.levels)
            inside += steps_inside
            outside += not steps_inside
        assert inside > 30 and outside > 30

    def test_memo_keeps_the_whole_box_entry(self):
        problem = random_affine_problem(np.random.default_rng(1))
        problem = dataclasses.replace(
            problem, state_lower=np.full(problem.state_dim, -100.0),
            state_upper=np.full(problem.state_dim, 100.0),
        )
        params = GridParams(5, 64)
        cache = memo_cache(problem, params)
        x = problem.initial_state
        assert box_steps_inside(problem, 0.0, x, 0.1)
        for _ in range(2):  # a miss, then a hit
            grid, rows = build_grid(cache, 0.0, x, 0.1)
            assert rows is None
            ((key, (state, lo, hi, keep)),) = cache.memo.items()
            assert key == (0.0, 0.1) and state == x.tobytes() and keep is None
            assert_bitwise(lo, problem.control_lower)
            assert_bitwise(hi, problem.control_upper)
            assert grid.lo is lo and grid.hi is hi

    def test_lone_feedback_propagation_holds_one_product_array(self, monkeypatch):
        # whole-box intervals write the box product into the cache's buffer
        # like any searched build: every grid handed out shares the buffer
        # or is a filtered row subset of it, and no second (K, m) array is
        # kept beside it
        problem, p0, source = feedback_replay(0)
        params = GridParams(101, 4096)
        cache = chattering.LevelCache(problem, params)
        generate, kinds = chattering.generate_levels_with_dynamics, collections.Counter()

        def recorded(cache_, t, x, dt, drift):
            grid, f = generate(cache_, t, x, dt, drift)
            kinds["box steps inside"] += box_steps_inside(problem, t, x, dt)
            if grid.levels is cache.levels:
                kinds["shared"] += 1
            else:
                assert grid.levels.base is None and grid.K < cache.levels.shape[0]
                rows = {row.tobytes() for row in np.ascontiguousarray(cache.levels)}
                assert all(row.tobytes() in rows for row in grid.levels)
                kinds["filtered"] += 1
            return grid, f

        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", recorded)
        propagate_forward(problem, TimePartition.uniform(1.0, 200), p0, params, source, cache)
        monkeypatch.undo()
        assert cache.memo is None and cache.levels.shape == (4096, problem.control_dim)
        assert kinds["shared"] + kinds["filtered"] == 200
        assert min(kinds.values()) > 0, kinds
        held = [v.levels if isinstance(v, LevelGrid) else v for v in vars(cache).values()]
        assert [a for a in held if isinstance(a, np.ndarray) and a.ndim == 2] == [cache.levels]


class TestLevelGridSharing:
    """A grid shares a read-only float64 array that owns its data, which is
    what the level generator hands it, and copies anything else."""

    #: the control ranges of the 2 x 2 grids below, which every grid carries
    ranges = (np.zeros(2), np.full(2, 3.0))

    def test_ranges_required(self):
        with pytest.raises(TypeError, match="missing 2 required positional arguments: 'lo' and 'hi'"):
            LevelGrid(np.array([[0.0, 1.0], [2.0, 3.0]]))

    def test_shares_a_read_only_owner(self):
        levels = np.array([[0.0, 1.0], [2.0, 3.0]])
        levels.setflags(write=False)
        assert LevelGrid(levels, *self.ranges).levels is levels

    def test_shared_owner_is_handed_over(self):
        # the owner can turn writing back on, and the grid sees the write
        levels = np.array([[0.0, 1.0], [2.0, 3.0]])
        levels.setflags(write=False)
        grid = LevelGrid(levels, *self.ranges)
        levels.setflags(write=True)
        levels[0, 0] = 5.0
        assert grid.levels[0, 0] == 5.0

    @pytest.mark.parametrize("kind", ["writable", "read-only view", "int"])
    def test_copies_anything_else(self, kind):
        source = np.array([[0, 1], [2, 3]], dtype=int if kind == "int" else float)
        given = source
        if kind == "read-only view":
            given = source[:, :]
            given.setflags(write=False)
        grid = LevelGrid(given, *self.ranges)
        assert grid.levels is not given and grid.levels.dtype == np.float64
        assert not grid.levels.flags.writeable and source.flags.writeable
        source[0, 0] = 7
        assert grid.levels.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("shared", [True, False])
    def test_generator_hands_over_read_only_levels(self, shared):
        # with one cache for both builds, the second writes the product into
        # the buffer that the first grid shares, and must lock it again
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        rng = np.random.default_rng(6)
        t = float(rng.uniform(0.0, 1.0))
        x_floor = rng.uniform(0.0, 2.0, 20)
        # states on the zero floor make the admissibility filter drop levels
        x_floor[rng.integers(0, 20, 6)] = 0.0
        params = GridParams()
        cache = LevelCache(problem, params)
        full, _ = build_grid(cache, 0.0, problem.initial_state, 0.005)
        kept, _ = build_grid(cache if shared else LevelCache(problem, params), t, x_floor, 0.005)
        assert full.levels is cache.levels
        assert full.K == 4096 and kept.K < 4096
        for grid in (full, kept):
            assert grid.levels.flags.owndata and not grid.levels.flags.writeable
            with pytest.raises(ValueError):
                grid.levels[0, 0] = 1.0
