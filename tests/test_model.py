import dataclasses
import re

import numpy as np
import pytest

from chatterctl import (
    ControlProblem,
    NonFiniteEvaluation,
    build_lqr,
    eval_hamiltonian,
    grad_h_state,
    terminal_costate,
    terminal_hessian,
)
from chatterctl.model import (
    eval_drift,
    eval_drift_jacobian,
    eval_dynamics_batch,
    eval_running_cost_batch,
    eval_terminal_cost,
)


def at(t=0.0, x=(10.0,), p=(0.0,)):
    """The (t, x, p) triple the Hamiltonian evaluators take."""
    return t, np.asarray(x, float), np.asarray(p, float)


def make_problem(**overrides):
    """A problem with zero dynamics, of the overrides' dimensions."""
    base = dict(
        state_dim=1,
        control_dim=1,
        horizon=1.0,
        initial_state=np.array([0.0]),
        running_cost=lambda t, x, u: 0.0,
        drift=lambda t, x: np.zeros(len(x)),
        drift_jacobian=lambda t, x: np.zeros((len(x), len(x))),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
    )
    base.update(overrides)
    if "control_matrix" not in base:
        base["control_matrix"] = np.zeros((base["control_dim"], base["state_dim"]))
    return ControlProblem(**base)


class TestEvalHamiltonian:
    def test_lqr_at_start(self):
        problem = build_lqr()
        assert eval_hamiltonian(problem, *at(), np.array([0.0])) == 100.0

    def test_zero_cost_zero_costate(self):
        problem = make_problem(drift=lambda t, x: np.array(x), control_matrix=np.ones((1, 1)))
        assert eval_hamiltonian(problem, *at(x=(3.0,), p=(0.0,)), np.array([0.5])) == 0.0

    def test_direct_substitution(self):
        problem = build_lqr()
        h = eval_hamiltonian(problem, *at(x=(1.0,), p=(2.0,)), np.array([-1.0]))
        assert h == pytest.approx(2.0, abs=1e-14)

    def test_non_finite_dynamics_raises(self):
        problem = make_problem(drift=lambda t, x: np.array([np.inf]))
        with pytest.raises(NonFiniteEvaluation):
            eval_hamiltonian(problem, *at(), np.array([0.0]))

    def test_non_finite_cost_raises(self):
        problem = make_problem(running_cost=lambda t, x, u: float("nan"))
        with pytest.raises(NonFiniteEvaluation):
            eval_hamiltonian(problem, *at(), np.array([0.0]))

    def test_linear_in_costate(self):
        problem = build_lqr()
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-5, 5, 1)
            p1 = rng.uniform(-5, 5, 1)
            p2 = rng.uniform(-5, 5, 1)
            a, b = rng.uniform(-2, 2, 2)
            u = rng.uniform(-30, 5, 1)
            g = eval_running_cost_batch(problem, 0.0, x, u[None, :])[0]
            lhs = eval_hamiltonian(problem, *at(x=x, p=a * p1 + b * p2), u)
            rhs = (
                a * eval_hamiltonian(problem, *at(x=x, p=p1), u)
                + b * eval_hamiltonian(problem, *at(x=x, p=p2), u)
                - (a + b - 1.0) * g
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


class TestGradHCostate:
    def test_lqr_values(self):
        problem = build_lqr()
        assert eval_dynamics_batch(problem, 0.0, np.array([10.0]), np.array([[0.0]]))[0, 0] == 10.0
        assert eval_dynamics_batch(problem, 0.0, np.array([3.0]), np.array([[-3.0]]))[0, 0] == 0.0


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
        assert grad_h_state(problem, *at(x=(10.0,), p=(0.0,)), np.array([0.0]))[0] == 20.0
        assert grad_h_state(problem, *at(x=(0.0,), p=(0.0,)), np.array([0.0]))[0] == 0.0

    def test_fd_matches_analytic(self):
        problem = dataclasses.replace(build_lqr(), hamiltonian_x_gradient=None)
        fd = grad_h_state(problem, *at(x=(10.0,), p=(1.0,)), np.array([0.0]))
        assert abs(fd[0] - 21.0) <= 1e-8

    def test_default_step_scales_with_state(self):
        problem = dataclasses.replace(build_lqr(), hamiltonian_x_gradient=None)
        analytic = build_lqr()
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = at(x=rng.uniform(-100, 100, 1), p=rng.uniform(-50, 50, 1))
            u = rng.uniform(-30, 5, 1)
            want = grad_h_state(analytic, *c, u)
            got = grad_h_state(problem, *c, u)
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
            terminal_cost=lambda x: 0.5 * float(x @ x),
        )
        x = np.array([3.0, -4.0])
        assert np.allclose(terminal_costate(problem, x), x, atol=1e-6)
        assert np.allclose(terminal_hessian(problem, x), np.eye(2), atol=1e-4)

    def test_linear_terminal_cost(self):
        problem = make_problem(
            state_dim=3,
            initial_state=np.zeros(3),
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
    def test_arrays_cannot_be_made_writable(self):
        # a caller that turns writing back on could change the problem after
        # its arrays were checked
        problem = make_problem(
            state_dim=2, initial_state=np.zeros(2), state_lower=np.full(2, -1.0),
            state_upper=np.ones(2), control_matrix=np.ones((1, 2)),
        )
        for name in ("initial_state", "control_lower", "control_upper", "state_lower",
                     "state_upper", "control_matrix"):
            array = getattr(problem, name)
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
            assert not array.flags.writeable, name

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

    @pytest.mark.parametrize("horizon", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_horizon_rejected(self, horizon):
        # an infinite horizon used to build and fail only in the partition
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            make_problem(horizon=horizon)

    @pytest.mark.parametrize("field", ["state_dim", "control_dim"])
    @pytest.mark.parametrize("value", [0, -1, True, 2.5, "1"], ids=["zero", "negative", "bool", "float", "str"])
    def test_dimensions_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got "):
            make_problem(control_matrix=np.zeros((1, 1)), **{field: value})

    def test_numpy_integer_dimensions_accepted(self):
        problem = make_problem(state_dim=np.int64(1), control_dim=np.int32(1))
        assert (problem.state_dim, problem.control_dim) == (1, 1)

    @pytest.mark.parametrize(
        "hooks",
        [
            dict(control_matrix=np.array([[np.nan]])),
            dict(control_matrix=np.ones((1, 2))),
            dict(control_matrix=None, drift_jacobian=None),
            dict(drift=None, drift_jacobian=None),
            dict(drift=None, control_matrix=None),
            dict(control_matrix=None),
            dict(drift_jacobian=None),
            dict(drift=None),
        ],
        ids=[
            "non-finite-matrix",
            "matrix-shape",
            "drift-without-matrix",
            "matrix-without-drift",
            "jacobian-alone",
            "jacobian-without-matrix",
            "without-jacobian",
            "without-drift",
        ],
    )
    def test_control_affine_hooks_rejected(self, hooks):
        with pytest.raises(ValueError, match="control_matrix"):
            make_problem(**hooks)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_state_rejected(self, value):
        # NaN < bound is False, so the state-bound checks let a NaN start through
        with pytest.raises(ValueError, match="initial_state must be finite"):
            make_problem(initial_state=np.array([value]))

    def test_running_cost_form_required(self):
        with pytest.raises(ValueError, match="running_cost or running_cost_batch"):
            make_problem(running_cost=None)
        make_problem(running_cost=None, running_cost_batch=lambda t, x, U: np.zeros(len(U)))

    @pytest.mark.parametrize(
        "form, error, message",
        [
            (dict(dynamics_batch=lambda t, x, U: np.zeros((len(U), 1))), TypeError,
             "unexpected keyword argument 'dynamics_batch'"),
            (dict(dynamics=lambda t, x, u: np.zeros(1)), TypeError,
             "unexpected keyword argument 'dynamics'"),
            (dict(drift=None, control_matrix=None, drift_jacobian=None), ValueError,
             "^a problem needs drift, control_matrix and drift_jacobian$"),
        ],
        ids=["batch", "scalar", "control-affine"],
    )
    def test_dynamics_form_required(self, form, error, message):
        # the dynamics come in one form, the three control-affine hooks:
        # the general forms are no fields, and the hooks are required
        with pytest.raises(error, match=message):
            make_problem(**form)


N, K = 2, 3
X = np.array([1.0, -2.0])
U = np.zeros((K, 1))

#: every problem hook: the shape its output must have, and an evaluation
#: that calls it
HOOKS = {
    "drift": ((N,), lambda pr: eval_drift(pr, 0.5, X)),
    "drift_jacobian": ((N, N), lambda pr: eval_drift_jacobian(pr, 0.5, X)),
    "running_cost_batch": ((K,), lambda pr: eval_running_cost_batch(pr, 0.5, X, U)),
    "running_cost": ((), lambda pr: eval_running_cost_batch(pr, 0.5, X, U)),
    "hamiltonian_x_gradient": ((N,), lambda pr: grad_h_state(pr, 0.5, X, X, U[0])),
    "terminal_cost": ((), lambda pr: eval_terminal_cost(pr, X)),
    "terminal_gradient": ((N,), lambda pr: terminal_costate(pr, X)),
    "terminal_hessian": ((N, N), lambda pr: terminal_hessian(pr, X)),
}
TIMELESS = ("terminal_cost", "terminal_gradient", "terminal_hessian")


def hook_problem(hook, value):
    """A two-state problem whose ``hook`` returns ``value`` at every call."""
    fields = dict(state_dim=2, initial_state=np.zeros(2), control_matrix=np.ones((1, 2)))
    fields[hook] = lambda *args: value
    return make_problem(**fields)


class TestHookOutputChecks:
    @pytest.mark.parametrize("hook", sorted(HOOKS))
    def test_wrong_shape_names_hook(self, hook):
        shape, evaluate = HOOKS[hook]
        bad = np.zeros(shape + (1,))
        expected = f"{hook} returned shape {bad.shape}, expected {shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            evaluate(hook_problem(hook, bad))

    @pytest.mark.parametrize("hook", sorted(HOOKS))
    def test_nan_names_hook(self, hook):
        shape, evaluate = HOOKS[hook]
        where = "" if hook in TIMELESS else " at t=0.5"
        expected = "^" + re.escape(f"{hook} returned a non-finite value{where}") + "$"
        with pytest.raises(NonFiniteEvaluation, match=expected):
            evaluate(hook_problem(hook, np.full(shape, np.nan)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_affine_rows_name_both_hooks(self):
        problem = hook_problem("drift", np.full(2, 1e308))
        with pytest.raises(NonFiniteEvaluation, match="drift \\+ u @ control_matrix returned"):
            eval_dynamics_batch(problem, 0.5, X, np.full((K, 1), 1e308))
