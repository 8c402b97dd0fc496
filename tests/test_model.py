import dataclasses

import numpy as np
import pytest

from chatterctl import (
    ControlProblem,
    HamiltonianContext,
    NonFiniteEvaluation,
    build_lqr,
    eval_hamiltonian,
    eval_hamiltonian_batch,
    grad_h_costate,
    grad_h_state,
    terminal_costate,
    terminal_hessian,
)
from chatterctl.model import eval_dynamics_batch


def ctx(t=0.0, x=(10.0,), p=(0.0,)):
    return HamiltonianContext(t, np.asarray(x, float), np.asarray(p, float))


def make_problem(**overrides):
    base = dict(
        state_dim=1,
        control_dim=1,
        horizon=1.0,
        initial_state=np.array([0.0]),
        running_cost=lambda t, x, u: 0.0,
        dynamics=lambda t, x, u: np.zeros(1),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )
    base.update(overrides)
    return ControlProblem(**base)


class TestEvalHamiltonian:
    def test_lqr_at_start(self):
        problem = build_lqr()
        assert eval_hamiltonian(problem, ctx(), np.array([0.0])) == 100.0

    def test_zero_cost_zero_costate(self):
        problem = make_problem(dynamics=lambda t, x, u: np.array([x[0] + u[0]]))
        assert eval_hamiltonian(problem, ctx(x=(3.0,), p=(0.0,)), np.array([0.5])) == 0.0

    def test_direct_substitution(self):
        problem = build_lqr()
        h = eval_hamiltonian(problem, ctx(x=(1.0,), p=(2.0,)), np.array([-1.0]))
        assert h == pytest.approx(2.0, abs=1e-14)

    def test_non_finite_dynamics_raises(self):
        problem = make_problem(dynamics=lambda t, x, u: np.array([np.inf]))
        with pytest.raises(NonFiniteEvaluation):
            eval_hamiltonian(problem, ctx(), np.array([0.0]))

    def test_non_finite_cost_raises(self):
        problem = make_problem(running_cost=lambda t, x, u: float("nan"))
        with pytest.raises(NonFiniteEvaluation):
            eval_hamiltonian(problem, ctx(), np.array([0.0]))

    def test_batch_matches_scalar(self):
        problem = build_lqr()
        c = ctx(x=(2.0,), p=(1.5,))
        controls = np.linspace(-30.0, 5.0, 7)[:, None]
        batch = eval_hamiltonian_batch(problem, c, controls)
        single = [eval_hamiltonian(problem, c, u) for u in controls]
        assert np.allclose(batch, single, rtol=0, atol=1e-12)

    def test_linear_in_costate(self):
        problem = build_lqr()
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-5, 5, 1)
            p1 = rng.uniform(-5, 5, 1)
            p2 = rng.uniform(-5, 5, 1)
            a, b = rng.uniform(-2, 2, 2)
            u = rng.uniform(-30, 5, 1)
            g = problem.running_cost(0.0, x, u)
            lhs = eval_hamiltonian(problem, ctx(x=x, p=a * p1 + b * p2), u)
            rhs = (
                a * eval_hamiltonian(problem, ctx(x=x, p=p1), u)
                + b * eval_hamiltonian(problem, ctx(x=x, p=p2), u)
                - (a + b - 1.0) * g
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


class TestGradHCostate:
    def test_is_dynamics_bitwise(self):
        problem = build_lqr()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-10, 10, 1)
            u = rng.uniform(-30, 5, 1)
            c = ctx(x=x, p=rng.uniform(-5, 5, 1))
            assert np.array_equal(
                grad_h_costate(problem, c, u), problem.dynamics(0.0, x, u)
            )

    def test_lqr_values(self):
        problem = build_lqr()
        assert grad_h_costate(problem, ctx(x=(10.0,)), np.array([0.0]))[0] == 10.0
        assert grad_h_costate(problem, ctx(x=(3.0,)), np.array([-3.0]))[0] == 0.0


class TestControlAffineHooks:
    def test_batch_dynamics_from_drift_and_matrix(self):
        B = np.array([[1.0, -2.0], [0.5, 0.0]])
        problem = make_problem(
            state_dim=2,
            control_dim=2,
            initial_state=np.zeros(2),
            control_lower=np.full(2, -1.0),
            control_upper=np.full(2, 1.0),
            drift=lambda t, x: np.array([t, -x[1]]),
            control_matrix=B,
        )
        controls = np.array([[0.25, -1.0], [1.0, 0.5]])
        f = eval_dynamics_batch(problem, 2.0, np.array([0.0, 3.0]), controls)
        assert np.array_equal(f, np.array([2.0, -3.0]) + controls @ B)

    def test_non_finite_drift_raises(self):
        problem = make_problem(drift=lambda t, x: np.array([np.inf]), control_matrix=np.ones((1, 1)))
        with pytest.raises(NonFiniteEvaluation):
            eval_dynamics_batch(problem, 0.0, np.zeros(1), np.zeros((2, 1)))


class TestGradHState:
    def test_analytic_lqr(self):
        problem = build_lqr()
        assert grad_h_state(problem, ctx(x=(10.0,), p=(0.0,)), np.array([0.0]))[0] == 20.0
        assert grad_h_state(problem, ctx(x=(0.0,), p=(0.0,)), np.array([0.0]))[0] == 0.0

    def test_fd_matches_analytic(self):
        problem = dataclasses.replace(build_lqr(), hamiltonian_x_gradient=None)
        fd = grad_h_state(problem, ctx(x=(10.0,), p=(1.0,)), np.array([0.0]))
        assert abs(fd[0] - 21.0) <= 1e-8

    def test_default_step_scales_with_state(self):
        problem = dataclasses.replace(build_lqr(), hamiltonian_x_gradient=None)
        analytic = build_lqr()
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = ctx(x=rng.uniform(-100, 100, 1), p=rng.uniform(-50, 50, 1))
            u = rng.uniform(-30, 5, 1)
            want = grad_h_state(analytic, c, u)
            got = grad_h_state(problem, c, u)
            tol = max(1e-6, 1e-4 * float(np.linalg.norm(want)))
            assert abs(got[0] - want[0]) <= tol


class TestTerminal:
    def test_no_terminal_cost_gives_exact_zeros(self):
        problem = build_lqr()
        g = terminal_costate(problem, np.array([123.4]))
        assert g.shape == (1,)
        assert g[0] == 0.0
        assert np.array_equal(terminal_hessian(problem, np.array([123.4])), np.zeros((1, 1)))

    def test_quadratic_terminal_cost(self):
        problem = make_problem(
            state_dim=2,
            initial_state=np.zeros(2),
            dynamics=lambda t, x, u: np.zeros(2),
            terminal_cost=lambda x: 0.5 * float(x @ x),
        )
        x = np.array([3.0, -4.0])
        assert np.allclose(terminal_costate(problem, x), x, atol=1e-6)
        assert np.allclose(terminal_hessian(problem, x), np.eye(2), atol=1e-4)

    def test_linear_terminal_cost(self):
        problem = make_problem(
            state_dim=3,
            initial_state=np.zeros(3),
            dynamics=lambda t, x, u: np.zeros(3),
            terminal_cost=lambda x: float(np.sum(x)),
        )
        g = terminal_costate(problem, np.array([1.0, -2.0, 7.0]))
        assert np.allclose(g, np.ones(3), atol=1e-9)

    def test_analytic_gradient_wins(self):
        problem = make_problem(
            terminal_cost=lambda x: float(x[0] ** 2),
            terminal_gradient=lambda x: np.array([-99.0]),
        )
        assert terminal_costate(problem, np.array([1.0]))[0] == -99.0


class TestProblemValidation:
    def test_control_bounds_order(self):
        with pytest.raises(ValueError):
            make_problem(control_lower=np.array([1.0]), control_upper=np.array([-1.0]))

    @pytest.mark.parametrize(
        "bounds",
        [
            dict(control_upper=np.array([np.nan])),
            dict(control_lower=np.array([np.nan])),
            dict(control_lower=np.array([-np.inf])),
            dict(control_upper=np.array([np.inf])),
        ],
        ids=["nan-upper", "nan-lower", "minus-inf-lower", "inf-upper"],
    )
    def test_non_finite_control_bounds_rejected(self, bounds):
        # a NaN upper bound passes an order check (NaN < x is False), and an
        # infinite one fails only inside the first interval
        with pytest.raises(ValueError, match="control bounds must be finite"):
            make_problem(**bounds)

    @pytest.mark.parametrize("attr", ["state_lower", "state_upper"])
    def test_nan_state_bound_rejected(self, attr):
        with pytest.raises(ValueError, match=f"{attr} must have shape \\(1,\\) and no NaN"):
            make_problem(**{attr: np.array([np.nan])})

    def test_infinite_state_bounds_accepted(self):
        # an infinite state bound leaves that side of the coordinate free
        problem = make_problem(state_lower=np.array([-np.inf]), state_upper=np.array([np.inf]))
        assert problem.has_state_bounds

    def test_initial_state_outside_bounds(self):
        with pytest.raises(ValueError):
            make_problem(
                initial_state=np.array([-2.0]),
                state_lower=np.array([0.0]),
                state_upper=np.array([5.0]),
            )

    def test_positive_horizon_required(self):
        with pytest.raises(ValueError):
            make_problem(horizon=0.0)

    @pytest.mark.parametrize(
        "hooks",
        [
            dict(drift=lambda t, x: x, control_matrix=np.array([[np.nan]])),
            dict(drift=lambda t, x: x, control_matrix=np.ones((1, 2))),
            dict(drift=lambda t, x: x),
            dict(control_matrix=np.ones((1, 1))),
            dict(drift_jacobian=lambda t, x: np.ones((1, 1))),
            dict(drift=lambda t, x: x, drift_jacobian=lambda t, x: np.ones((1, 1))),
        ],
        ids=[
            "non-finite-matrix",
            "matrix-shape",
            "drift-without-matrix",
            "matrix-without-drift",
            "jacobian-alone",
            "jacobian-without-matrix",
        ],
    )
    def test_control_affine_hooks_rejected(self, hooks):
        with pytest.raises(ValueError):
            make_problem(**hooks)

    def test_context_requires_finite_entries(self):
        with pytest.raises(ValueError):
            HamiltonianContext(0.0, np.array([np.nan]), np.array([0.0]))
