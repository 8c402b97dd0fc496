import collections
import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from chatterctl import (
    ControlProblem,
    GridParams,
    InfeasibleLevels,
    NonFiniteEvaluation,
    SensitivityEstimate,
    ShootingConfig,
    SingularCorrection,
    TimePartition,
    build_lqr,
    build_supply_chain,
    finite_diff_sensitivities,
    lqr_analytic_solution,
    propagate_forward,
    solve,
    synthetic_demand,
    terminal_costate,
    terminal_hessian,
)
from chatterctl import chattering, shooting
from chatterctl.cli import export_convergence
from chatterctl.model import (
    eval_hamiltonian_argmin,
    eval_hamiltonian_argmin_jacobian,
    eval_hamiltonian_state_hessian,
)
from chatterctl.shooting import tangent_sensitivities, update_initial_costate
from oracles import (
    TANKS_B,
    TANKS_TARGET,
    TANKS_X0,
    argmin_jacobian_by_differences,
    central_difference_tangent,
    cubic_drift_problem,
    fingerprint,
    linear_dynamics,
    lqr_discrete_optimum,
    lqr_hamiltonian_flow,
    priced_bolza_problem,
    state_hessian_by_differences,
    tanks_discrete_optimum,
    tanks_problem,
    unpriced,
)


def inert_problem(n=2, horizon=1.0):
    """No dynamics, no costs: terminal costate equals the initial guess."""
    return ControlProblem(
        state_dim=n,
        control_dim=1,
        horizon=horizon,
        initial_state=np.zeros(n),
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        **linear_dynamics(np.zeros((1, n))),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )


def drift_only_problem():
    """Dynamics read the state but never the costate."""
    return ControlProblem(
        state_dim=2,
        control_dim=1,
        horizon=1.0,
        initial_state=np.array([1.0, -1.0]),
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        drift=lambda t, x: np.array([-x[0], 0.5 * x[1]]),
        control_matrix=np.zeros((1, 2)),
        drift_jacobian=lambda t, x: np.diag([-1.0, 0.5]),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )


def quadratic_terminal_cost(weight, n, calls):
    """The terminal hooks of psi = weight |x|^2 in n states; each call
    appends its hook's name to ``calls``."""

    def counted(name, hook):
        def call(x):
            calls.append(name)
            return hook(x)
        return call

    return dict(
        terminal_cost=counted("psi", lambda x: weight * float(x @ x)),
        terminal_gradient=counted("gradient", lambda x: 2.0 * weight * x),
        terminal_hessian=counted("hessian", lambda x: 2.0 * weight * np.eye(n)),
    )


class TestFiniteDiffSensitivities:
    def test_inert_problem_gives_identity(self):
        problem = inert_problem()
        part = TimePartition.uniform(1.0, 5)
        sens = finite_diff_sensitivities(problem, part, np.zeros(2), 1e-3, GridParams(3, 16))
        assert np.array_equal(sens.P_x, np.zeros((2, 2)))
        assert np.array_equal(sens.P_p, np.eye(2))

    def test_state_ignores_costate(self):
        problem = drift_only_problem()
        part = TimePartition.uniform(1.0, 10)
        sens = finite_diff_sensitivities(problem, part, np.zeros(2), 1e-3, GridParams(3, 16))
        assert np.array_equal(sens.P_x, np.zeros((2, 2)))

    def test_lqr_terminal_costate_sensitivity(self):
        # the perturbation must exceed the level-switch granularity, otherwise
        # the difference only sees the frozen-control flow
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 100)
        p0 = np.array([lqr_analytic_solution(0.0)[1]])
        sens = finite_diff_sensitivities(problem, part, p0, 4.0, GridParams(101, 4096))
        reference = lqr_hamiltonian_flow(1.0)[1, 1]
        assert abs(sens.P_p[0, 0] - reference) <= 0.1 * abs(reference)

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            finite_diff_sensitivities(
                inert_problem(), TimePartition.uniform(1.0, 2), np.zeros(2), 0.0
            )

    def test_propagates_its_own_nominal(self, monkeypatch):
        # n + 1 propagations, the first from p0 itself: the reference shares
        # no run with the tangent it checks
        problem, part, grid = grocer_10()
        p0 = np.zeros(20)
        forward = shooting.propagate_forward
        starts = []

        def counted(problem, partition, p0, *args, **kwargs):
            starts.append(np.array(p0))
            return forward(problem, partition, p0, *args, **kwargs)

        monkeypatch.setattr(shooting, "propagate_forward", counted)
        finite_diff_sensitivities(problem, part, p0, 1e-3, grid)
        assert len(starts) == 21
        assert np.array_equal(starts[0], p0)

    def test_lowest_failing_perturbation_reported(self):
        problem = two_rest_point_problem()
        part = TimePartition.uniform(1.0, 10)
        grid = GridParams(3, 16)
        intervals = []
        for j in range(2):
            p0_j = np.zeros(2)
            p0_j[j] += 0.2
            with pytest.raises(InfeasibleLevels) as alone:
                propagate_forward(problem, part, p0_j, grid)
            intervals.append(alone.value.interval_index)
        assert intervals[1] < intervals[0]
        with pytest.raises(InfeasibleLevels) as excinfo:
            finite_diff_sensitivities(problem, part, np.zeros(2), 0.2, grid)
        assert excinfo.value.perturbation_index == 0
        assert excinfo.value.interval_index == intervals[0]
        assert excinfo.value.__cause__.interval_index == intervals[0]
        assert f"[interval {intervals[0]}," in str(excinfo.value)


@pytest.mark.parametrize("shape", ["n+1", "n,1", "scalar"])
@pytest.mark.parametrize("entry", ["propagate_forward", "finite_diff_sensitivities", "solve"])
@pytest.mark.parametrize("case", ["lqr", "grocer"])
def test_malformed_p0_rejected_before_first_interval(case, entry, shape, monkeypatch):
    if case == "lqr":
        problem, part, grid = build_lqr(), TimePartition.uniform(1.0, 100), GridParams(101, 4096)
    else:
        problem, part, grid = grocer_10()
    n = problem.state_dim
    p0 = {"n+1": np.zeros(n + 1), "n,1": np.zeros((n, 1)), "scalar": np.zeros(())}[shape]
    generated = []
    monkeypatch.setattr(
        chattering, "generate_levels_with_dynamics", lambda *args: generated.append(args)
    )
    expected = "p0 must have shape"
    if entry == "solve" and p0.ndim != 1:
        # a guess that is not 1-d is already refused by the solver's config
        expected = "p0_initial must be a 1-d array"
    with pytest.raises(ValueError, match=expected):
        if entry == "propagate_forward":
            propagate_forward(problem, part, p0, grid)
        elif entry == "finite_diff_sensitivities":
            finite_diff_sensitivities(problem, part, p0, 1e-3, grid)
        else:
            solve(problem, part, ShootingConfig(p0_initial=p0), grid)
    assert generated == []


class TestUpdateInitialCostate:
    def test_scalar_substitution(self):
        problem = inert_problem(n=1)
        sens = SensitivityEstimate(np.zeros((1, 1)), np.array([[2.0]]))
        step, _ = update_initial_costate(sens, np.array([1.0]), np.zeros(1), problem)
        assert 4.0 + step[0] == pytest.approx(3.5, abs=1e-15)

    def test_zero_residual_is_fixed_point(self):
        problem = inert_problem(n=1)
        sens = SensitivityEstimate(np.zeros((1, 1)), np.array([[1.0]]))
        step, _ = update_initial_costate(sens, np.zeros(1), np.zeros(1), problem)
        assert 2.0 + 0.7 * step[0] == 2.0

    def test_inert_family_decays_geometrically(self):
        problem = inert_problem(n=1)
        sens = SensitivityEstimate(np.zeros((1, 1)), np.eye(1))
        p0 = np.array([8.0])
        for _ in range(4):
            step, _ = update_initial_costate(sens, p0, np.zeros(1), problem)
            p0 = p0 + 0.5 * step
        assert p0[0] == 0.5**4 * 8.0

    def test_zero_state_tangent_needs_no_terminal_hessian(self):
        # the mismatch comes in, so a P_x of exact zeros calls no terminal
        # hook; any other P_x calls the Hessian hook once
        calls = []
        problem = dataclasses.replace(inert_problem(n=2), **quadratic_terminal_cost(0.5, 2, calls))
        p_T, x_T = np.array([1.0, 2.0]), np.array([3.0, -4.0])
        mismatch = p_T - terminal_costate(problem, x_T)
        calls.clear()
        frozen = SensitivityEstimate(np.zeros((2, 2)), np.eye(2))
        step, _ = update_initial_costate(frozen, mismatch, x_T, problem)
        assert calls == []
        # 0 - P_p is -P_p: the correction of the Hessian path, bit for bit
        M = terminal_hessian(problem, x_T) @ frozen.P_x - frozen.P_p
        assert np.array_equal(step, np.linalg.solve(M, mismatch))
        calls.clear()
        # Hess(psi) = I: P_x = 0.5 everywhere would make the matrix singular
        moved = SensitivityEstimate(np.full((2, 2), 0.25), np.eye(2))
        update_initial_costate(moved, mismatch, x_T, problem)
        assert calls == ["hessian"]

    def test_singular_matrix_raises(self):
        problem = inert_problem(n=2)
        sens = SensitivityEstimate(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SingularCorrection):
            update_initial_costate(sens, np.ones(2), np.zeros(2), problem)


class TestSolve:
    def test_inert_problem_converges_in_one_correction(self):
        problem = inert_problem(n=1)
        part = TimePartition.uniform(1.0, 3)
        config = ShootingConfig(
            p0_initial=np.array([3.0]), gamma=1.0, epsilon=1e-3
        )
        result = solve(problem, part, config, GridParams(3, 16))
        assert result.converged
        assert result.iterations == 2
        assert np.array_equal(result.residual_history, [3.0, 0.0])
        assert result.p0_final[0] == 0.0

    def test_record_arrays_are_read_only(self):
        # each is a view of a read-only owner: a write raises, and so does
        # turning writing back on, so export_convergence writes the run's
        # own p0_final and a caller cannot change a config after its check
        config = ShootingConfig(p0_initial=np.array([3.0]), gamma=1.0)
        result = solve(inert_problem(n=1), TimePartition.uniform(1.0, 3), config, GridParams(3, 16))
        sens = SensitivityEstimate(np.eye(1), np.eye(1))
        records = (result.p0_final, result.residual_history, result.cost_history)
        for array in (config.p0_initial, *records, sens.P_x, sens.P_p):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array.setflags(write=True)
        assert result.p0_final[0] == 0.0
        assert result.iterations == result.residual_history.size == 2

    def test_geometric_decay_matches_closed_form(self):
        # the shooting map p0 -> p_T is the identity: the full step, which
        # every correction tries first, lands on its root whatever the floor
        problem = inert_problem(n=2)
        part = TimePartition.uniform(1.0, 4)
        p0 = np.array([3.0, -4.0])
        config = ShootingConfig(
            p0_initial=p0, gamma=0.5, epsilon=1e-9, max_iterations=40
        )
        result = solve(problem, part, config, GridParams(3, 16))
        assert result.converged
        assert result.residual_history.tolist() == [5.0, 0.0]
        assert result.step_lengths == (1.0,) and result.step_kinds == ("newton",)

    def test_best_trajectory_matches_min_residual(self):
        # the grid-only lqr at gamma 1 moves away from the root on its
        # frozen tangent (the priced one converges in 3 iterations)
        problem = unpriced(build_lqr())
        part = TimePartition.uniform(1.0, 50)
        config = ShootingConfig(
            p0_initial=np.zeros(1), gamma=1.0, max_iterations=8, epsilon=1e-12
        )
        result = solve(problem, part, config, GridParams(101, 4096))
        assert not result.converged
        assert result.residual == float(np.min(result.residual_history))
        assert result.residual < result.residual_history[-1]
        assert result.iterations == 8
        assert len(result.residual_history) == 8
        assert "budget" in result.message

    def test_lqr_converges_deterministically(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 100)
        config = ShootingConfig(p0_initial=np.zeros(1))
        first = solve(problem, part, config, GridParams(101, 4096))
        second = solve(problem, part, config, GridParams(101, 4096))
        assert first.converged and second.converged
        assert np.array_equal(first.residual_history, second.residual_history)
        assert np.array_equal(first.p0_final, second.p0_final)
        assert first.trajectory.accumulated_cost == second.trajectory.accumulated_cost

    def test_lqr_final_residual_below_epsilon(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 100)
        config = ShootingConfig(p0_initial=np.zeros(1), epsilon=1e-3)
        result = solve(problem, part, config, GridParams(101, 4096))
        assert result.converged
        assert result.residual < 1e-3
        assert result.residual_history[-1] < 1e-3

    def test_singular_correction_falls_back_to_gradient_step(self):
        # dynamics ignore everything, terminal cost gradient pins p_T = x_T;
        # P_p - Hess*P_x turns singular when both Jacobians vanish... use an
        # inert problem with terminal hessian canceling P_p
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost_batch=lambda t, x, U: np.zeros(len(U)),
            running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
            **linear_dynamics(np.zeros((1, 1))),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
            terminal_cost=lambda x: 0.5 * float(x @ x),
            terminal_gradient=lambda x: np.array(x),
            terminal_hessian=lambda x: np.eye(1),
        )
        # P_p = I and Hess = I, P_x = 0 -> M = -I (regular); force ridge huge
        # condition instead by a crafted sensitivity
        sens = SensitivityEstimate(P_x=np.array([[1.0]]), P_p=np.array([[1.0]]))
        with pytest.raises(SingularCorrection):
            # p_T = 2 and x_T = 1: the mismatch p_T - x_T is 1
            update_initial_costate(sens, np.array([1.0]), np.array([1.0]), problem)
        # the outer loop absorbs the singularity via the gradient fallback
        part = TimePartition.uniform(1.0, 2)
        config = ShootingConfig(p0_initial=np.array([5.0]), gamma=0.5)
        result = solve(problem, part, config, GridParams(3, 16))
        assert result.converged

    def test_infeasible_levels_reported_as_diagnostic(self):
        # drift is control-independent and strictly negative: once the state
        # reaches its floor no control level passes the one-step bound check
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([0.04]),
            running_cost_batch=lambda t, x, U: np.zeros(len(U)),
            running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
            **linear_dynamics(np.zeros((1, 1)), c=-1.0),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
            state_lower=np.array([0.0]),
        )
        part = TimePartition.uniform(1.0, 10)
        config = ShootingConfig(p0_initial=np.zeros(1))
        result = solve(problem, part, config, GridParams(3, 16))
        assert not result.converged
        assert result.trajectory is None
        assert "infeasible" in result.message

    def test_perturbation_errors_are_tagged(self):
        # at p0 = 0 the solver holds u = 0 and the state rests at 0.2; the
        # perturbed costate flips the control on, the state falls below the
        # 0.2 rest point, the positive feedback drags it to the floor, and
        # there every control violates the one-step bound
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.array([0.2]),
            running_cost_batch=lambda t, x, U: 0.1 * U[:, 0],
            running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
            **linear_dynamics(-np.ones((1, 1)), c=-0.2, a=1.0),
            control_lower=np.array([0.0]),
            control_upper=np.array([1.0]),
            state_lower=np.array([0.0]),
        )
        from chatterctl import InfeasibleLevels

        part = TimePartition.uniform(1.0, 10)
        # the control-off trajectory itself is fine
        nominal = solve(
            problem, part, ShootingConfig(p0_initial=np.zeros(1)),
            GridParams(3, 16),
        )
        assert nominal.trajectory is not None
        with pytest.raises(InfeasibleLevels) as excinfo:
            finite_diff_sensitivities(problem, part, np.zeros(1), 0.2, GridParams(3, 16))
        assert excinfo.value.perturbation_index == 0

    def test_budget_exhaustion_reports_not_converged(self):
        problem = build_lqr()
        part = TimePartition.uniform(1.0, 20)
        config = ShootingConfig(p0_initial=np.zeros(1), max_iterations=2, epsilon=1e-15)
        result = solve(problem, part, config, GridParams(21, 64))
        assert not result.converged
        assert result.iterations == 2
        assert "budget" in result.message

    def test_repeated_guess_stops_the_cycle(self):
        # at 20 intervals and gamma 1 every full step is accepted, and the
        # grid-only lqr iterates settle on two guesses that alternate (the
        # priced lqr converges)
        problem = unpriced(build_lqr())
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=1.0, max_iterations=500)
        result = solve(problem, TimePartition.uniform(1.0, 20), config, GridParams(101, 4096))
        assert not result.converged
        assert result.iterations == 12
        assert "the guess for iteration 13 repeats iteration 11" in result.message
        assert "cycle with length 2" in result.message
        assert result.residual == np.min(result.residual_history)

    def test_rejected_trial_is_recorded(self, tmp_path):
        # the grid-only lqr's frozen tangent overshoots: the full step from
        # p0 = 0 raises the residual from 26.4 to 29.7, above 0.75 of it, so
        # the trial is rejected and the half step, at the floor, accepted
        problem = unpriced(build_lqr())
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=0.5)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        first, full, half = result.residual_history[:3].tolist()
        assert first == pytest.approx(26.43, abs=0.01)
        assert full == pytest.approx(29.68, abs=0.01) and full > 0.75 * first
        assert half == pytest.approx(1.849, abs=0.001)
        assert result.step_kinds[:2] == ("rejected", "newton")
        assert result.step_lengths[:2] == (1.0, 0.5)
        # one entry per correction, the floor never undercut
        assert len(result.step_lengths) == len(result.step_kinds) == result.iterations - 1
        assert set(result.step_lengths) == {1.0, 0.5}
        # a rejected trial's guess is not a cycle: both of its propagations
        # count, and the run converges
        assert result.converged
        export_convergence(result, tmp_path / "convergence.json")
        written = json.loads((tmp_path / "convergence.json").read_text())
        assert written["step_kinds"] == list(result.step_kinds)
        assert written["step_lengths"] == list(result.step_lengths)

    def test_rejected_trial_recomputes_neither_tangent_nor_step(self, monkeypatch):
        # the grid-only lqr rejects 7 full steps: each of its 7 accepted
        # iterates takes one tangent and one Newton step, and the rejected
        # trial from it only halves the step length
        calls = {"tangent_sensitivities": 0, "update_initial_costate": 0}

        def counted(name):
            wrapped = getattr(shooting, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(shooting, name, count)

        counted("tangent_sensitivities")
        counted("update_initial_costate")
        problem = unpriced(build_lqr())
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=0.5)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        assert result.converged and result.iterations == 15
        assert result.step_kinds.count("rejected") == 7
        assert calls == {"tangent_sensitivities": 7, "update_initial_costate": 7}

    def test_correction_reuses_the_mismatch(self):
        # psi = 5 x^2 on the priced lqr, whose P_x is not 0: each of 4
        # propagations calls psi once for its cost and the gradient once
        # for its mismatch, each of 3 corrections the Hessian once
        calls = []
        problem = dataclasses.replace(build_lqr(), **quadratic_terminal_cost(5.0, 1, calls))
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=0.5)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        assert result.converged and result.iterations == 4
        assert result.step_kinds == ("newton",) * 3
        counts = {name: calls.count(name) for name in ("psi", "gradient", "hessian")}
        assert counts == {"psi": 4, "gradient": 4, "hessian": 3} and len(calls) == 11

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_step_length_floor(self, gamma):
        # halving stops at the floor: 1, 0.5 at gamma 0.3; the full step
        # alone at gamma 1, where every trial is accepted
        problem = unpriced(build_lqr())
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=gamma, max_iterations=6)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        if gamma == 1.0:
            assert set(result.step_lengths) == {1.0} and "rejected" not in result.step_kinds
        else:
            assert result.step_lengths[:2] == (1.0, 0.5)
            assert min(result.step_lengths) >= gamma

    @pytest.mark.parametrize("intervals", [20, 50, 100])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_priced_lqr_takes_three_newton_steps(self, intervals, gamma):
        # the tangent sees the priced control, so the map is affine and the
        # second full step lands on its root
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=gamma)
        result = solve(build_lqr(), TimePartition.uniform(1.0, intervals), config, GridParams())
        assert result.converged and result.iterations == 3
        assert result.step_kinds == ("newton", "newton")
        assert result.step_lengths == (1.0, 1.0)
        # the exact tangent's step lands on that root up to rounding
        assert result.residual_history[-1] < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(p0_initial=np.zeros(1), gamma=0.0)
        with pytest.raises(ValueError):
            ShootingConfig(p0_initial=np.zeros(1), max_iterations=0)
        with pytest.raises(ValueError):
            ShootingConfig(p0_initial=np.zeros(1), epsilon=0.0)

    @pytest.mark.parametrize("field, build", [
        ("k_per_dim", lambda v: GridParams(v)),
        ("cap", lambda v: GridParams(101, v)),
        ("max_iterations", lambda v: ShootingConfig(p0_initial=np.zeros(1), max_iterations=v)),
        ("intervals", lambda v: TimePartition.uniform(1.0, v)),
    ])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, float("inf"), float("nan"), "3", None])
    def test_integer_settings_refuse_non_integers(self, field, build, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build(value)

    @pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_integer_settings_accept_numpy_integers(self, value):
        assert GridParams(value, value).k_per_dim == 3
        assert ShootingConfig(p0_initial=np.zeros(1), max_iterations=value).max_iterations == 3
        assert TimePartition.uniform(1.0, value).intervals == 3

    def test_non_finite_epsilon_rejected(self):
        # an infinite epsilon would accept the first iterate, whatever its residual
        for eps in (np.inf, np.nan):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                ShootingConfig(p0_initial=np.zeros(1), epsilon=eps)

    def test_cost_history_has_one_entry_per_iteration(self):
        problem = inert_problem(n=1)
        part = TimePartition.uniform(1.0, 2)
        config = ShootingConfig(p0_initial=np.array([2.0]), gamma=0.5, epsilon=1e-6)
        result = solve(problem, part, config, GridParams(3, 16))
        assert result.converged and result.iterations > 1
        assert result.cost_history.tolist() == [0.0] * result.iterations
        assert result.cost_history[-1] == result.trajectory.accumulated_cost


class TestExactPricing:
    """Solves with a ``hamiltonian_argmin`` hook, against the optimum of the
    discretized problem and against the grid alone."""

    @pytest.mark.parametrize("intervals", [10, 20, 50, 100])
    def test_priced_lqr_converges_near_the_discrete_optimum(self, intervals):
        # the grid alone cycles at 10, 20 and 50 intervals on level
        # quantization; a run is a feasible control of the discretized
        # problem, so it cannot cost less than its optimum
        part = TimePartition.uniform(1.0, intervals)
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=0.5)
        result = solve(build_lqr(), part, config, GridParams(101, 4096))
        assert result.converged and result.iterations <= 6
        excess = result.trajectory.accumulated_cost - lqr_discrete_optimum(intervals)
        assert excess >= 0.0
        if intervals == 100:
            grid_only = unpriced(build_lqr())
            reference = solve(grid_only, part, config, GridParams(101, 4096))
            grid_excess = reference.trajectory.accumulated_cost - lqr_discrete_optimum(intervals)
            assert excess < grid_excess and grid_excess == pytest.approx(0.0558, abs=1e-4)
            assert excess == pytest.approx(0.0448, abs=1e-4)

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_terminal_cost_lands_near_the_discrete_optimum(self, gamma):
        # psi = 5 x^2 with its gradient and Hessian: the Newton step through
        # the terminal Hessian converges in 4 iterations to a run within
        # 0.02 of the Riccati optimum from P_N = 5 (0.0100 above it)
        problem = dataclasses.replace(build_lqr(), **quadratic_terminal_cost(5.0, 1, []))
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=gamma)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        assert result.converged and result.iterations == 4
        excess = result.trajectory.accumulated_cost - lqr_discrete_optimum(100, terminal_weight=5.0)
        assert 0.0 <= excess <= 0.02

    def test_priced_bolza_at_zero_adds_nothing_the_grid_attains(self):
        # the hook's minimizer at p = 0 is the grid's u = -1, which ties:
        # the tie rule keeps it out, so the grid's half-and-half measure on
        # u = -1 and u = 1 stands and the run costs 0 in one iteration
        problem = priced_bolza_problem(0.0)
        calls = []

        def argmin(t, x, p, lo, hi):
            rows = problem.hamiltonian_argmin(t, x, p, lo, hi)
            calls.append(rows.tolist())
            return rows

        priced = dataclasses.replace(problem, hamiltonian_argmin=argmin)
        config = ShootingConfig(p0_initial=np.zeros(1))
        result = solve(priced, TimePartition.uniform(1.0, 100), config, GridParams())
        assert result.converged and result.iterations == 1
        assert calls == [[[-1.0]]] * 100
        traj = result.trajectory
        assert traj.accumulated_cost == 0.0
        assert np.array_equal(traj.offsets, np.arange(0, 201, 2))
        assert traj.support_levels.tolist() == [[-1.0], [1.0]] * 100
        assert traj.support_weights.tolist() == [0.5] * 200


class TestTwoTanks:
    """The two tanks of ``oracles.tanks_problem``: two states coupled
    through both controls, an upper state bound and a terminal cost,
    against the explicit-Euler QP optimum ``oracles.tanks_discrete_optimum``."""

    def test_oracle_matches_an_exhaustive_grid(self):
        # every control block of a 21-point grid per control over [0, 1]^4,
        # then of one over +-0.05 around the best, rolled out step by step
        def grid_best(lo, hi):
            axes = [np.linspace(a, b, 21) for a, b in zip(lo, hi)]
            U = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
            U = U.reshape(-1, 2, 2)
            dt, x, cost = 0.5, np.broadcast_to(TANKS_X0, (len(U), 2)), np.zeros(len(U))
            for k in range(2):
                cost += dt * 0.1 * (U[:, k] ** 2).sum(axis=1)
                x = x + dt * (-0.5 * x + U[:, k] @ TANKS_B)
            cost += ((x - TANKS_TARGET) ** 2).sum(axis=1)
            best = int(cost.argmin())
            return cost[best], U[best].ravel()

        _, coarse = grid_best(np.zeros(4), np.ones(4))
        fine, _ = grid_best(np.clip(coarse - 0.05, 0.0, 1.0), np.clip(coarse + 0.05, 0.0, 1.0))
        # the grid's best is a feasible point: it cannot beat the optimum
        assert 0.0 <= fine - tanks_discrete_optimum(2) <= 1e-5

    def test_priced_tanks_converge_to_the_discrete_optimum(self):
        # the exact minimizer prices every interval: the run ends 2.35e-7
        # above the optimum of the QP the solver discretizes
        config = ShootingConfig(p0_initial=np.zeros(2), gamma=0.5)
        result = solve(tanks_problem(True), TimePartition.uniform(1.0, 20), config, GridParams(11, 121))
        assert result.converged and result.iterations == 7
        excess = result.trajectory.accumulated_cost - tanks_discrete_optimum(20)
        assert 0.0 <= excess <= 1e-6

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 2: without a pricing hook the 121-level grid cannot reach the "
        "optimum (the run spends its budget at cost 0.3572)",
    )
    def test_hookless_tanks_reach_the_discrete_optimum(self):
        config = ShootingConfig(p0_initial=np.zeros(2), gamma=0.5, max_iterations=60)
        result = solve(tanks_problem(False), TimePartition.uniform(1.0, 20), config, GridParams(11, 121))
        assert result.converged
        assert abs(result.trajectory.accumulated_cost - tanks_discrete_optimum(20)) <= 1e-5


#: the runs that a step length backtracking below ``gamma`` must converge
BELOW_GAMMA = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 16: a trial at lambda == gamma is accepted whatever its "
    "residual, and the full steps at gamma 1 cycle",
)


class TestStepRuleBelowGamma:
    """Runs that the step rule fails today: at ``gamma 1`` every full step
    is accepted, and these iterates settle on a cycle of length 2."""

    @BELOW_GAMMA
    @pytest.mark.parametrize("p0", [-20.0, 200.0])
    def test_terminal_cost_lqr_from_far_starts(self, p0):
        # cycles after 3 (p0 = -20) or 5 (p0 = 200) iterations, best
        # residual 391.8 or 322.9
        problem = dataclasses.replace(build_lqr(), **quadratic_terminal_cost(5.0, 1, []))
        config = ShootingConfig(p0_initial=np.array([p0]), gamma=1.0, max_iterations=60)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        assert result.converged

    @BELOW_GAMMA
    def test_grid_only_lqr_at_gamma_one(self):
        # cycles after 9 iterations at cost 419.3
        problem = unpriced(build_lqr())
        config = ShootingConfig(p0_initial=np.zeros(1), gamma=1.0, max_iterations=60)
        result = solve(problem, TimePartition.uniform(1.0, 100), config, GridParams(101, 4096))
        assert result.converged

    @BELOW_GAMMA
    def test_priced_tanks_at_gamma_one(self):
        # cycles after 14 iterations with x_T = (0.915, 0)
        config = ShootingConfig(p0_initial=np.zeros(2), gamma=1.0, max_iterations=60)
        result = solve(tanks_problem(True), TimePartition.uniform(1.0, 20), config, GridParams(11, 121))
        assert result.converged


def grocer_10():
    problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 10)
    return problem, TimePartition.uniform(1.0, 10), GridParams(3, 64)


def two_rest_point_problem():
    """Two decoupled copies of the rest-point problem of
    ``test_perturbation_errors_are_tagged``, resting at 0.2 and 0.1: a
    perturbed costate turns its control on, its state falls to the floor and
    there no control level is admissible.  The state resting at 0.1 gets
    there first."""
    rest = np.array([0.2, 0.1])
    return ControlProblem(
        state_dim=2,
        control_dim=2,
        horizon=1.0,
        initial_state=rest,
        running_cost_batch=lambda t, x, U: 0.1 * (U[:, 0] + U[:, 1]),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        **linear_dynamics(-np.eye(2), c=-rest, a=1.0),
        control_lower=np.zeros(2),
        control_upper=np.ones(2),
        state_lower=np.zeros(2),
    )


def coupled_problem():
    """x0' = x1, x1' = 0: the dynamics Jacobian is not symmetric, so the
    costate tangent tells F_x^T from F_x."""
    return ControlProblem(
        state_dim=2,
        control_dim=1,
        horizon=1.0,
        initial_state=np.array([0.5, 2.0]),
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
        drift=lambda t, x: np.array([x[1], 0.0]),
        control_matrix=np.zeros((1, 2)),
        drift_jacobian=lambda t, x: np.array([[0.0, 1.0], [0.0, 0.0]]),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )


def desk_problem():
    problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
    return problem, TimePartition.uniform(1.0, 200), GridParams(101, 4096)


#: the drift Jacobians of lqr and the drift-only problem are exact, so the
#: closed forms hold to rounding
AFFINE_RTOL = 1e-13

#: the priced tanks at 20 intervals from near their solution: the priced rows
#: win intervals 1 to 19, with u0 clipped at 1 and u1 free; at interval 0 the
#: hook's row (1, 0.2) is a grid level, which the tie rule leaves to the grid
TANKS_P0 = np.array([-0.34, -0.38])


def priced_tanks():
    return tanks_problem(True), TimePartition.uniform(1.0, 20), GridParams(11, 121)


#: each priced problem and a draw of (p, lo, hi) at which its minimizer
#: moves with p at some points and is clipped at others: the whole control
#: box, except for Bolza, whose minimizer over [-1, 1] is always an end
PRICED = {
    "lqr": (build_lqr, lambda rng: (rng.uniform(-80.0, 80.0, 1), [-30.0], [5.0])),
    "bolza": (
        priced_bolza_problem,
        lambda rng: (rng.uniform(-0.5, 2.0, 1), rng.uniform(0.0, 0.4, 1), rng.uniform(0.8, 1.0, 1)),
    ),
    "cubic-drift": (cubic_drift_problem, lambda rng: (rng.uniform(-20.0, 20.0, 1), [-5.0], [5.0])),
    "tanks": (lambda: tanks_problem(True), lambda rng: (rng.uniform(-0.5, 0.5, 2), [0.0, 0.0], [1.0, 1.0])),
}


class TestPricingDerivatives:
    """Each priced problem's ``hamiltonian_argmin_jacobian`` and
    ``hamiltonian_state_hessian`` against central differences of its
    ``hamiltonian_argmin`` and of ``grad_h_state``, at random points and
    random control ranges away from the minimizer's kinks."""

    @pytest.mark.parametrize("name", sorted(PRICED))
    def test_hooks_match_central_differences(self, name):
        build, draw = PRICED[name]
        problem, rng = build(), np.random.default_rng(5)
        n, m = problem.state_dim, problem.control_dim
        moving = clipped = 0
        for _ in range(60):
            t, x = float(rng.uniform()), rng.uniform(-2.0, 2.0, n)
            p, lo, hi = (np.asarray(v, dtype=float) for v in draw(rng))
            reference = argmin_jacobian_by_differences(problem, t, x, p, lo, hi)
            if reference is not None:
                u = eval_hamiltonian_argmin(problem, t, x, p, lo, hi)[0]
                got = eval_hamiltonian_argmin_jacobian(problem, t, x, p, lo, hi, u)
                assert np.abs(got - reference).max() <= 1e-6 * max(1.0, np.abs(reference).max())
                moving, clipped = moving + got.any(), clipped + (not got.any())
            U = rng.uniform(problem.control_lower, problem.control_upper, (3, m))
            reference = state_hessian_by_differences(problem, t, x, p, U)
            got = eval_hamiltonian_state_hessian(problem, t, x, p, U)
            assert np.abs(got - reference).max() <= 1e-6 * max(1.0, np.abs(reference).max())
        # both pieces were reached
        assert moving >= 10 and clipped >= 10


class TestTangentSensitivities:
    def tangent(self, problem, intervals, p0, grid):
        part = TimePartition.uniform(problem.horizon, intervals)
        nominal = propagate_forward(problem, part, p0, grid)
        return tangent_sensitivities(problem, nominal)

    def test_lqr_closed_form(self):
        # from the optimal p0 every interval is priced and unclipped, u = -p/2:
        # dx' = dx + dt (dx + du) with du = -dp/2, dp' = dp - dt (dp + 2 dx),
        # so each interval applies [[1 + dt, -dt/2], [-2 dt, 1 - dt]] to
        # (dx, dp), from (0, 1)
        p0 = np.array([lqr_analytic_solution(0.0)[1]])
        part = TimePartition.uniform(1.0, 100)
        nominal = propagate_forward(build_lqr(), part, p0, GridParams(101, 4096))
        assert sorted(nominal.priced_ranges) == list(range(100))
        sens = tangent_sensitivities(build_lqr(), nominal)
        dt = 0.01
        step = np.array([[1.0 + dt, -dt / 2], [-2.0 * dt, 1.0 - dt]])
        expected = np.linalg.matrix_power(step, 100) @ np.array([0.0, 1.0])
        assert sens.P_x[0, 0] == pytest.approx(expected[0], rel=1e-9)
        assert sens.P_p[0, 0] == pytest.approx(expected[1], rel=1e-9)

    @pytest.mark.parametrize("case", ["grocer", "grid-only lqr"])
    def test_hookless_tangent_is_the_frozen_product(self, case):
        # without a priced interval the tangent is the product of
        # I - dt J^T over the intervals, bit for bit, and P_x exactly 0
        if case == "grocer":
            problem, part, grid = grocer_10()
        else:
            problem = unpriced(build_lqr())
            part, grid = TimePartition.uniform(1.0, 100), GridParams(101, 4096)
        nominal = propagate_forward(problem, part, np.ones(problem.state_dim), grid)
        assert len(nominal.priced_ranges) == 0
        sens = tangent_sensitivities(problem, nominal)
        dp = np.eye(problem.state_dim)
        for t, dt, x in zip(part.times.tolist(), part.deltas.tolist(), nominal.x):
            dp = dp - dt * (problem.drift_jacobian(t, x).T @ dp)
        assert np.array_equal(sens.P_x, np.zeros_like(dp))
        assert np.array_equal(sens.P_p, dp)

    @pytest.mark.parametrize("kink, expected", [(30.0, 0.0), (40.0, -0.5)])
    def test_kink_keeps_the_frozen_control(self, kink, expected):
        # lqr's minimizer -p/2 with its slope in p bent from -1/2 to -3/2 at
        # p = kink: one interval from p0 = 30 prices u = -15 either way.
        # The hook states its own slope, -1/2 below the bend and 0 at the
        # bend itself, as at a clip; the tangent reads it: P_x = dt du
        def bent(t, x, p, lo, hi):
            u = -0.5 * float(p[0]) - max(float(p[0]) - kink, 0.0)
            return [[min(max(u, float(lo[0])), float(hi[0]))]]

        def slope(t, x, p, lo, hi, u):
            inside = lo[0] < u[0] < hi[0] and p[0] != kink
            return [[0.0, (-0.5 if p[0] < kink else -1.5) if inside else 0.0]]

        calls = []

        def argmin(*args):
            calls.append(args)
            return bent(*args)

        problem = dataclasses.replace(build_lqr(), hamiltonian_argmin=argmin, hamiltonian_argmin_jacobian=slope)
        part = TimePartition.uniform(1.0, 1)
        nominal = propagate_forward(problem, part, np.array([30.0]), GridParams(101, 4096))
        assert list(nominal.priced_ranges) == [0] and nominal.u[0, 0] == -15.0
        calls.clear()
        sens = tangent_sensitivities(problem, nominal)
        assert sens.P_x[0, 0] == expected and calls == []

    @pytest.mark.parametrize("case", ["lqr", "tanks"])
    def test_priced_tangent_differences_no_hook(self, case):
        # the tangent reads the drift Jacobian once per interval, the
        # minimizer's Jacobian once per priced interval and the Hessian rows
        # once per interval from the first that moved the control; it calls
        # neither the minimizer nor the dH/dx of grad_h_state (its hook
        # running_cost_state_gradient)
        if case == "lqr":
            problem, part, grid = build_lqr(), TimePartition.uniform(1.0, 100), GridParams()
            p0 = np.array([lqr_analytic_solution(0.0)[1]])
        else:
            (problem, part, grid), p0 = priced_tanks(), TANKS_P0
        calls = collections.Counter()

        def counted(name):
            hook = getattr(problem, name)

            def wrapper(*args):
                calls[name] += 1
                return hook(*args)

            return wrapper

        names = ("hamiltonian_argmin", "hamiltonian_argmin_jacobian", "hamiltonian_state_hessian",
                 "running_cost_state_gradient", "drift_jacobian")
        problem = dataclasses.replace(problem, **{name: counted(name) for name in names})
        nominal = propagate_forward(problem, part, p0, grid)
        first = min(nominal.priced_ranges)
        assert first == (0 if case == "lqr" else 1)
        calls.clear()
        tangent_sensitivities(problem, nominal)
        assert calls == {
            "hamiltonian_argmin_jacobian": len(nominal.priced_ranges),
            "hamiltonian_state_hessian": part.intervals - first,
            "drift_jacobian": part.intervals,
        }

    def test_priced_tanks_match_finite_differences(self):
        # the reference's perturbations of 1e-6 keep every priced interval's
        # clip pattern and interval 0 on its grid level, so the map is affine
        # there and the two agree to rounding
        (problem, part, grid), p0 = priced_tanks(), TANKS_P0
        sens = tangent_sensitivities(problem, propagate_forward(problem, part, p0, grid))
        reference = finite_diff_sensitivities(problem, part, p0, 1e-6, grid)
        assert sens.P_x.any()
        for got, expected in ((sens.P_x, reference.P_x), (sens.P_p, reference.P_p)):
            assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()

    @pytest.mark.parametrize("hook, shape", [
        ("hamiltonian_argmin_jacobian", (1, 2)), ("hamiltonian_state_hessian", (1, 1, 2)),
    ], ids=["jacobian", "hessian"])
    @pytest.mark.parametrize("bad", ["shape", "nan"])
    def test_pricing_derivative_errors_name_their_interval(self, hook, shape, bad):
        # from the optimal p0 every lqr interval is priced and moves the
        # control, so the tangent reads both hooks at each; they go wrong
        # from t = 0.5 on: interval 10 of 20
        lqr = build_lqr()
        exact = getattr(lqr, hook)
        value = np.zeros(shape + (1,)) if bad == "shape" else np.full(shape, np.nan)

        def wrong(t, *args):
            return value if t >= 0.5 else exact(t, *args)

        problem = dataclasses.replace(lqr, **{hook: wrong})
        part = TimePartition.uniform(1.0, 20)
        nominal = propagate_forward(problem, part, np.array([lqr_analytic_solution(0.0)[1]]), GridParams())
        if bad == "shape":
            error, message = ValueError, f"{hook} returned shape {value.shape}, expected {shape}"
        else:
            error, message = NonFiniteEvaluation, f"{hook} returned a non-finite value at t=0.5"
        with pytest.raises(error) as excinfo:
            tangent_sensitivities(problem, nominal)
        assert excinfo.value.interval_index == 10
        assert str(excinfo.value) == f"{message} [interval 10, t=0.5]"

    @pytest.mark.parametrize("case", ["grocer", "lqr"])
    def test_matches_the_finite_difference_reference(self, case):
        # the reference steps 1e-3. At the 10-interval grocer from p0 = 0
        # every perturbed run stays on the nominal states, so P_x matches
        # exactly; at LQR from p0 = 30 every interval is priced and no
        # perturbed run crosses a clip, so the tangent sees the priced control
        if case == "grocer":
            (problem, part, grid), p0 = grocer_10(), np.zeros(20)
        else:
            problem, part, grid = build_lqr(), TimePartition.uniform(1.0, 100), GridParams()
            p0 = np.array([30.0])
        sens = tangent_sensitivities(problem, propagate_forward(problem, part, p0, grid))
        reference = finite_diff_sensitivities(problem, part, p0, 1e-3, grid)
        if case == "grocer":
            assert np.array_equal(sens.P_x, reference.P_x)
        else:
            assert np.abs(sens.P_x - reference.P_x).max() <= 1e-6 * np.abs(reference.P_x).max()
        assert np.abs(sens.P_p - reference.P_p).max() <= 1e-6 * np.abs(reference.P_p).max()

    def test_grocer_closed_form(self):
        # the grocer's drift is -x plus terms free of x
        problem, part, grid = grocer_10()
        sens = self.tangent(problem, 10, np.zeros(20), grid)
        assert np.array_equal(sens.P_x, np.zeros((20, 20)))
        expected = (1.0 + 0.1) ** 10 * np.eye(20)
        assert np.max(np.abs(sens.P_p - expected)) <= 1e-9 * expected[0, 0]

    def test_inert_problem_gives_identity(self):
        sens = self.tangent(inert_problem(), 5, np.zeros(2), GridParams(3, 16))
        assert np.array_equal(sens.P_x, np.zeros((2, 2)))
        assert np.array_equal(sens.P_p, np.eye(2))

    def test_drift_only_closed_form(self):
        sens = self.tangent(drift_only_problem(), 10, np.zeros(2), GridParams(3, 16))
        assert np.array_equal(sens.P_x, np.zeros((2, 2)))
        expected = np.diag([(1.0 + 0.1) ** 10, (1.0 - 0.05) ** 10])
        assert np.max(np.abs(sens.P_p - expected)) <= AFFINE_RTOL * expected[0, 0]

    def test_costate_tangent_uses_transposed_jacobian(self):
        # p0' = 0, p1' = -p0, so p_T = (p0(0), p1(0) - p0(0)); the nilpotent
        # Jacobian makes the Euler product exact
        sens = self.tangent(coupled_problem(), 10, np.zeros(2), GridParams(3, 16))
        expected = np.array([[1.0, 0.0], [-1.0, 1.0]])
        assert np.max(np.abs(sens.P_p - expected)) <= AFFINE_RTOL
        reference = finite_diff_sensitivities(
            coupled_problem(), TimePartition.uniform(1.0, 10), np.zeros(2), 1e-3, GridParams(3, 16)
        )
        assert np.max(np.abs(sens.P_p - reference.P_p)) <= 1e-6

    def test_x_dependent_drift_jacobian(self):
        # every interval is priced, so the curvature runs at each of them,
        # with its d(F_x^T p)/dx = -3 x p part; the reference is a central
        # difference, (run from p0 + d - run from p0 - d) / 2d
        problem, p0, d = cubic_drift_problem(), np.array([1.0]), 1e-4
        part, grid = TimePartition.uniform(1.0, 50), GridParams(11, 64)
        nominal = propagate_forward(problem, part, p0, grid)
        assert sorted(nominal.priced_ranges) == list(range(50))
        sens = tangent_sensitivities(problem, nominal)
        reference = finite_diff_sensitivities(problem, part, p0 - d, 2.0 * d, grid)
        assert sens.P_x[0, 0] == pytest.approx(reference.P_x[0, 0], rel=1e-6)
        assert sens.P_p[0, 0] == pytest.approx(reference.P_p[0, 0], rel=1e-6)

    @pytest.mark.parametrize("case", ["grocer", "lqr"])
    def test_drift_jacobian_matches_central_differences(self, case):
        # the reference holds every measure fixed: lqr runs on its grid alone
        if case == "grocer":
            problem, part, grid = grocer_10()
            p0 = np.zeros(20)
        else:
            problem = unpriced(build_lqr())
            part, grid = TimePartition.uniform(1.0, 100), GridParams(101, 4096)
            p0 = np.array([lqr_analytic_solution(0.0)[1]])
        nominal = propagate_forward(problem, part, p0, grid)
        analytic = tangent_sensitivities(problem, nominal)
        reference = central_difference_tangent(problem, part, nominal)
        assert np.array_equal(analytic.P_x, np.zeros_like(reference))
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(analytic.P_p - reference)) <= 1e-9 * scale

    def test_interval_lengths_come_from_the_nominal_times(self):
        # on its grid alone lqr's tangent is the product of 1 - dt over the
        # intervals of the run, here of unequal lengths
        problem = unpriced(build_lqr())
        p0 = np.array([lqr_analytic_solution(0.0)[1]])
        part = TimePartition(np.array([0.0, 0.1, 0.2, 0.3, problem.horizon]))
        nominal = propagate_forward(problem, part, p0, GridParams(101, 4096))
        expected = 1.0
        for dt in np.diff(part.times).tolist():
            expected = expected - dt * expected
        assert tangent_sensitivities(problem, nominal).P_p[0, 0] == expected

    @pytest.mark.parametrize("jacobian, error, interval, message", [
        (lambda t, x: np.eye(2), ValueError, 0,
         "drift_jacobian returned shape (2, 2), expected (1, 1) [interval 0, t=0.0]"),
        (lambda t, x: np.array([[np.nan if t >= 0.5 else 1.0]]), NonFiniteEvaluation, 10,
         "drift_jacobian returned a non-finite value at t=0.5 [interval 10, t=0.5]"),
    ], ids=["shape", "nan"])
    def test_hook_error_names_its_interval(self, jacobian, error, interval, message):
        # every costate step reads drift_jacobian, so a solve's first
        # propagation sees a bad one; the tangent, along a good nominal run,
        # tags it as the propagation does
        problem = dataclasses.replace(build_lqr(), drift_jacobian=jacobian)
        part, grid = TimePartition.uniform(1.0, 20), GridParams(21, 64)
        nominal = propagate_forward(build_lqr(), part, np.zeros(1), grid)
        runs = [
            lambda: solve(problem, part, ShootingConfig(p0_initial=np.zeros(1)), grid),
            lambda: tangent_sensitivities(problem, nominal),
        ]
        for run in runs:
            with pytest.raises(error) as excinfo:
                run()
            assert excinfo.value.interval_index == interval
            assert str(excinfo.value) == message

    def test_desk_solve_runs_no_perturbed_propagation(self, monkeypatch):
        problem, part, grid = desk_problem()
        forward, generate = shooting.propagate_forward, chattering.generate_levels_with_dynamics
        search = chattering._search_ranges
        calls = {"forward": 0, "levels": 0, "searches": 0}

        def counted_forward(*args, **kwargs):
            calls["forward"] += 1
            return forward(*args, **kwargs)

        def counted_levels(*args, **kwargs):
            calls["levels"] += 1
            return generate(*args, **kwargs)

        def counted_search(*args):
            calls["searches"] += 1
            return search(*args)

        monkeypatch.setattr(shooting, "propagate_forward", counted_forward)
        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", counted_levels)
        monkeypatch.setattr(chattering, "_search_ranges", counted_search)
        config = ShootingConfig(p0_initial=np.zeros(20), gamma=1.0)
        result = solve(problem, part, config, grid)
        assert result.converged and result.iterations == 3
        # the unregularized Newton step lands on the root of the affine map
        assert result.residual_history[-1] < 1e-6
        # one propagation per iteration, one level generation per interval;
        # 222 of them start an interval from the state an earlier iteration
        # started it from, and skip the range search
        assert calls == {"forward": 3, "levels": 600, "searches": 378}


def filtered_grocer(intervals):
    """The grocer at constant demand 20: stock runs down to the zero floor,
    so the admissibility filter drops levels at many intervals."""
    problem = build_supply_chain(synthetic_demand("constant", 20.0), 1.0, intervals)
    return problem, TimePartition.uniform(1.0, intervals), GridParams()


class TestLevelMemo:
    """``solve`` hands one ``LevelCache`` with a memo to all its
    propagations, and nothing else: an interval that a later iteration
    starts from the same state reuses the level work, and the run is the
    one that plain propagations of the same guesses give."""

    @pytest.mark.parametrize("intervals, repeats, filtered_repeats", [(50, 62, 40), (20, 25, 17)])
    def test_solve_matches_plain_propagations(self, intervals, repeats, filtered_repeats, monkeypatch):
        problem, part, grid = filtered_grocer(intervals)
        forward, generate = shooting.propagate_forward, chattering.generate_levels_with_dynamics
        runs, caches, reused = [], [], []

        def recorded_forward(problem, partition, p0, grid_params, **kwargs):
            cache = kwargs["cache"]
            caches.append((cache, len(cache.memo)))
            trajectory = forward(problem, partition, p0, grid_params, **kwargs)
            runs.append((np.array(p0), fingerprint(trajectory)))
            return trajectory

        def recorded_levels(cache, t, x, dt, drift):
            # a reuse: the memo holds this interval from this state, bit for bit
            entry = cache.memo.get((t, dt))
            hit = entry is not None and entry[0] == x.tobytes()
            grid_out = generate(cache, t, x, dt, drift)
            if hit:
                reused.append(grid_out[0].K)
            return grid_out

        monkeypatch.setattr(shooting, "propagate_forward", recorded_forward)
        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", recorded_levels)
        config = ShootingConfig(p0_initial=np.zeros(20), gamma=1.0)
        for _ in range(2):
            result = solve(problem, part, config, grid)
            assert result.converged and result.iterations == 3
        assert len(reused) == 2 * repeats
        assert sum(k < grid.cap for k in reused) == 2 * filtered_repeats
        # one cache per solve, its memo empty when the solve starts, one
        # entry per interval
        assert [size for _, size in caches] == [0, intervals, intervals] * 2
        assert caches[0][0] is caches[2][0] and caches[3][0] is not caches[0][0]
        assert all(len(cache.memo) == intervals for cache, _ in caches)
        monkeypatch.undo()
        for p0, digest in runs:
            assert fingerprint(propagate_forward(problem, part, p0, grid)) == digest
        assert fingerprint(result.trajectory) == runs[-1][1]


    def test_desk_solve_writes_only_the_moved_columns(self, monkeypatch):
        # the grid of a non-gated dimension with one level is [lo]: a build
        # where only its hi moved keeps its column. On desk these are
        # dimensions 22-28, and the first build writes each of them once
        problem, part, grid = desk_problem()
        write, writes = chattering._write_columns, collections.Counter()

        def counted(levels, grids, cols):
            writes.update(cols)
            return write(levels, grids, cols)

        monkeypatch.setattr(chattering, "_write_columns", counted)
        result = solve(problem, part, ShootingConfig(p0_initial=np.zeros(20), gamma=1.0), grid)
        assert result.converged and result.iterations == 3
        one_value = (~chattering.LevelCache(problem, grid).reads_hi).nonzero()[0].tolist()
        assert one_value == list(range(22, 29))
        assert [writes[j] for j in one_value] == [1] * 7
        assert sum(writes.values()) == 4691

    def test_lone_propagation_keeps_no_memo(self, monkeypatch):
        # a lone propagation starts each interval once, so a memo would
        # only hold memory
        problem, part, grid = filtered_grocer(20)
        generate, memos = chattering.generate_levels_with_dynamics, []

        def recorded(cache, t, x, dt, drift):
            memos.append(cache.memo)
            return generate(cache, t, x, dt, drift)

        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", recorded)
        propagate_forward(problem, part, np.zeros(20), grid)
        assert memos == [None] * 20


class TestLevelWorkLifetime:
    @pytest.mark.parametrize("case", ["lqr", "filtered grocer"])
    def test_no_level_work_outlives_a_solve(self, case, monkeypatch):
        # the solve's LevelCache holds the level work, the shared whole-box
        # grid and the product buffer included, and goes with the solve
        if case == "lqr":
            problem = build_lqr()
            partition, grid = TimePartition.uniform(problem.horizon, 100), GridParams()
            config = ShootingConfig(p0_initial=np.zeros(1), gamma=0.5)
        else:
            problem, partition, grid = filtered_grocer(20)
            config = ShootingConfig(p0_initial=np.zeros(20), gamma=1.0)
        generate, handed_out = chattering.generate_levels_with_dynamics, []

        def recorded(*args):
            grid_out = generate(*args)
            handed_out.append(weakref.ref(grid_out[0].levels))
            return grid_out

        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", recorded)
        result = solve(problem, partition, config, grid)
        gc.collect()
        assert result.converged and len(handed_out) == result.iterations * partition.intervals
        assert all(ref() is None for ref in handed_out)


class TestConditionNumbers:
    def test_newton_correction_records_condition(self):
        # inert problem: the correction matrix is -I
        config = ShootingConfig(p0_initial=np.array([3.0]), gamma=1.0)
        result = solve(inert_problem(n=1), TimePartition.uniform(1.0, 3), config, GridParams(3, 16))
        assert result.condition_numbers == (1.0,)

    def test_refused_matrix_records_nan(self, monkeypatch, tmp_path):
        def singular(*args, **kwargs):
            raise SingularCorrection("forced")

        monkeypatch.setattr(shooting, "update_initial_costate", singular)
        config = ShootingConfig(p0_initial=np.array([2.0]), gamma=0.5, epsilon=1e-3)
        result = solve(inert_problem(n=1), TimePartition.uniform(1.0, 2), config, GridParams(3, 16))
        assert len(result.condition_numbers) == result.iterations - 1 > 0
        assert all(np.isnan(c) for c in result.condition_numbers)
        export_convergence(result, tmp_path / "convergence.json")
        written = json.loads((tmp_path / "convergence.json").read_text())
        assert written["condition_numbers"] == [None] * (result.iterations - 1)

    def test_condition_of_the_first_correction(self):
        problem, part = drift_only_problem(), TimePartition.uniform(1.0, 10)
        p0 = np.ones(2)
        config = ShootingConfig(p0_initial=p0, max_iterations=2, epsilon=1e-15)
        result = solve(problem, part, config, GridParams(3, 16))
        nominal = propagate_forward(problem, part, p0, GridParams(3, 16))
        sens = tangent_sensitivities(problem, nominal)
        # no terminal cost: the matrix is -P_p
        expected = np.linalg.cond(-sens.P_p)
        assert result.condition_numbers[0] == expected
        closed_form = 1.1**10 / 0.95**10
        assert expected == pytest.approx(closed_form, rel=1e-9)


class TestStepKinds:
    def test_newton_steps_recorded(self):
        config = ShootingConfig(
            p0_initial=np.array([3.0]), gamma=1.0, epsilon=1e-3
        )
        result = solve(inert_problem(n=1), TimePartition.uniform(1.0, 3), config, GridParams(3, 16))
        assert result.step_kinds == ("newton",)

    def test_singular_correction_shows_as_gradient(self, monkeypatch, tmp_path):
        def singular(*args, **kwargs):
            raise SingularCorrection("forced")

        monkeypatch.setattr(shooting, "update_initial_costate", singular)
        config = ShootingConfig(p0_initial=np.array([2.0]), gamma=0.5, epsilon=1e-3)
        result = solve(inert_problem(n=1), TimePartition.uniform(1.0, 2), config, GridParams(3, 16))
        assert result.converged
        assert result.step_kinds == ("gradient",) * (result.iterations - 1)
        export_convergence(result, tmp_path / "convergence.json")
        written = json.loads((tmp_path / "convergence.json").read_text())
        assert written["step_kinds"] == ["gradient"] * (result.iterations - 1)
