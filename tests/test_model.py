import re

import numpy as np
import pytest

from chatterctl import (
    ControlProblem,
    GridParams,
    NonFiniteEvaluation,
    ShootingConfig,
    TimePartition,
    build_lqr,
    build_supply_chain,
    eval_hamiltonian,
    grad_h_state,
    propagate_forward,
    solve,
    synthetic_demand,
    terminal_costate,
    terminal_hessian,
)
from chatterctl import model
from chatterctl.model import (
    eval_drift,
    eval_drift_jacobian,
    eval_dynamics_batch,
    eval_hamiltonian_argmin_jacobian,
    eval_hamiltonian_state_hessian,
    eval_running_cost_batch,
    eval_terminal_cost,
)
from oracles import central_difference, cubic_drift_problem


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
        running_cost_batch=lambda t, x, U: np.zeros(len(U)),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
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
        problem = make_problem(running_cost_batch=lambda t, x, U: np.full(len(U), np.nan))
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
        # one support row of weight 1: g_x = 2x, and F_x^T p = p
        problem = build_lqr()
        support = (np.array([[0.0]]), np.ones(1))
        assert grad_h_state(problem, *at(x=(10.0,), p=(0.0,)), *support)[0] == 20.0
        assert grad_h_state(problem, *at(x=(0.0,), p=(0.0,)), *support)[0] == 0.0

    def test_fd_matches_analytic(self):
        problem = build_lqr()
        t, x, p = at(x=(10.0,), p=(1.0,))
        assert grad_h_state(problem, t, x, p, np.array([[0.0]]), np.ones(1))[0] == 21.0
        fd = central_difference(lambda y: eval_hamiltonian(problem, t, y, p, np.zeros(1)), x)
        assert abs(fd[0] - 21.0) <= 1e-8

    def test_default_step_scales_with_state(self):
        # the central difference that the tests check the hooks with, step
        # 1e-6 * max(1, |x_j|), against the assembled dH/dx
        problem = build_lqr()
        rng = np.random.default_rng(11)
        for _ in range(50):
            t, x, p = at(x=rng.uniform(-100, 100, 1), p=rng.uniform(-50, 50, 1))
            u = rng.uniform(-30, 5, 1)
            want = grad_h_state(problem, t, x, p, u[None, :], np.ones(1))
            got = central_difference(lambda y: eval_hamiltonian(problem, t, y, p, u), x)
            tol = max(1e-6, 1e-4 * float(np.linalg.norm(want)))
            assert abs(got[0] - want[0]) <= tol

    def test_measure_weighted_parts(self):
        # sum_k a_k g_x(c_k) + F_x^T p, in dyadic values, so exactly
        problem = make_problem(
            state_dim=2,
            initial_state=np.zeros(2),
            running_cost_state_gradient=lambda t, x, U: np.outer(U[:, 0], x),
            drift_jacobian=lambda t, x: np.array([[0.0, 1.0], [-x[0], 0.0]]),
        )
        x, p = np.array([2.0, -1.0]), np.array([0.5, 4.0])
        got = grad_h_state(problem, 0.0, x, p, np.array([[1.0], [3.0]]), np.array([0.25, 0.75]))
        assert np.array_equal(got, 2.5 * x + np.array([[0.0, 1.0], [-2.0, 0.0]]).T @ p)

    def test_x_dependent_drift_jacobian_matches_fd(self):
        problem = cubic_drift_problem()
        for x, p, u in [(0.3, 0.7, 0.25), (-1.2, -3.0, -1.5), (2.0, 0.7, 4.0)]:
            x, p, u = np.array([x]), np.array([p]), np.array([u])
            analytic = grad_h_state(problem, 0.0, x, p, u[None, :], np.ones(1))
            fd = central_difference(lambda y: eval_hamiltonian(problem, 0.0, y, p, u), x)
            assert abs(fd[0] - analytic[0]) <= 1e-8 * abs(analytic[0])

    def test_no_dh_dx_is_differenced(self):
        # every dH/dx is assembled from the hooks (the library holds no
        # central difference): a solve and a grocer propagation run
        part = TimePartition.uniform(1.0, 100)
        result = solve(build_lqr(), part, ShootingConfig(p0_initial=np.zeros(1)), GridParams(101, 4096))
        assert result.converged
        grocer = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 20)
        traj = propagate_forward(grocer, TimePartition.uniform(1.0, 20), np.zeros(20), GridParams(3, 64))
        assert np.all(np.isfinite(traj.p))


class TestTerminal:
    def test_no_terminal_cost_gives_exact_zeros(self):
        problem = build_lqr()
        g = terminal_costate(problem, np.array([123.4]))
        assert g.shape == (1,)
        assert g[0] == 0.0
        assert np.array_equal(terminal_hessian(problem, np.array([123.4])), np.zeros((1, 1)))

    def test_quadratic_terminal_cost(self):
        # the hooks are read, never differenced (the library holds no
        # central difference): psi is not called, with or without a
        # terminal cost
        calls = []

        def psi(x):
            calls.append(1)
            return 0.5 * float(x @ x)

        problem = make_problem(
            state_dim=2,
            initial_state=np.zeros(2),
            terminal_cost=psi,
            terminal_gradient=lambda x: np.array(x),
            terminal_hessian=lambda x: np.eye(2),
        )
        x = np.array([3.0, -4.0])
        assert np.array_equal(terminal_costate(problem, x), x)
        assert np.array_equal(terminal_hessian(problem, x), np.eye(2))
        assert calls == []
        bare = make_problem(state_dim=2, initial_state=np.zeros(2))
        assert np.array_equal(terminal_costate(bare, x), np.zeros(2))
        assert np.array_equal(terminal_hessian(bare, x), np.zeros((2, 2)))

    def test_linear_terminal_cost(self):
        # psi = sum(x), 6 at x: every hook gets x as a 1-d float array
        seen = []

        def hook(value):
            def evaluate(x):
                seen.append((x.dtype, x.shape))
                return value
            return evaluate

        problem = make_problem(
            state_dim=3,
            initial_state=np.zeros(3),
            terminal_cost=hook(6.0),
            terminal_gradient=hook(np.ones(3)),
            terminal_hessian=hook(np.zeros((3, 3))),
        )
        x = [1, -2, 7]
        assert eval_terminal_cost(problem, x) == 6.0
        assert np.array_equal(terminal_costate(problem, x), np.ones(3))
        assert np.array_equal(terminal_hessian(problem, x), np.zeros((3, 3)))
        assert seen == [(np.dtype(float), (3,))] * 3

    def test_analytic_gradient_wins(self):
        # the derivatives are the hooks' as given, not psi's (2x and 2)
        problem = make_problem(
            terminal_cost=lambda x: float(x[0] ** 2),
            terminal_gradient=lambda x: np.array([-99.0]),
            terminal_hessian=lambda x: np.array([[-7.0]]),
        )
        assert terminal_costate(problem, np.array([1.0]))[0] == -99.0
        assert terminal_hessian(problem, np.array([1.0]))[0, 0] == -7.0

    @pytest.mark.parametrize("given", [
        ("terminal_cost",),
        ("terminal_gradient",),
        ("terminal_hessian",),
        ("terminal_cost", "terminal_gradient"),
        ("terminal_cost", "terminal_hessian"),
        ("terminal_gradient", "terminal_hessian"),
    ], ids="+".join)
    def test_terminal_hooks_come_together(self, given):
        # a gradient without a cost would pin p(T) for a cost the run never
        # charges; psi alone would leave both derivatives to differences
        hooks = {
            "terminal_cost": lambda x: 0.0,
            "terminal_gradient": lambda x: np.zeros(1),
            "terminal_hessian": lambda x: np.zeros((1, 1)),
        }
        message = "^give terminal_cost, terminal_gradient and terminal_hessian, or none$"
        with pytest.raises(ValueError, match=message):
            make_problem(**{name: hooks[name] for name in given})


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
        with pytest.raises(ValueError, match="^initial_state violates state_lower$"):
            make_problem(
                initial_state=np.array([-2.0]),
                state_lower=np.array([0.0]),
                state_upper=np.array([5.0]),
            )

    def test_initial_state_above_upper_bound(self):
        with pytest.raises(ValueError, match="^initial_state violates state_upper$"):
            make_problem(initial_state=np.array([6.0]), state_upper=np.array([5.0]))

    def test_empty_state_box_rejected(self):
        # refused by name before the initial state is checked against it
        with pytest.raises(ValueError, match="^state_lower must be <= state_upper componentwise$"):
            make_problem(state_lower=np.array([1.0]), state_upper=np.array([0.0]))

    @pytest.mark.parametrize(
        "field, message",
        [
            (dict(initial_state=np.zeros(2)), r"^initial_state must have shape \(1,\)$"),
            (dict(control_lower=np.full(2, -1.0)), r"^control bounds must have shape \(1,\)$"),
            (dict(control_upper=np.ones((1, 1))), r"^control bounds must have shape \(1,\)$"),
        ],
        ids=["initial-state", "control-lower", "control-upper"],
    )
    def test_array_shapes_checked(self, field, message):
        with pytest.raises(ValueError, match=message):
            make_problem(**field)

    @pytest.mark.parametrize(
        "gated, message",
        [
            ({2: (0.2, 0.5)}, "^gated dim 2 out of range$"),
            ({-1: (0.2, 0.5)}, "^gated_dims key must be an integer >= 0, got -1$"),
            ({0: (0.5, 0.2)}, "^gated dim 0 has empty active range$"),
            # a float key would never be applied, and True would gate dimension 1
            ({1.5: (0.2, 0.5)}, "^gated_dims key must be an integer >= 0, got 1.5$"),
            ({True: (0.2, 0.5)}, "^gated_dims key must be an integer >= 0, got True$"),
        ],
        ids=["out-of-range", "negative", "empty-range", "float-key", "bool-key"],
    )
    def test_gated_dims_checked(self, gated, message):
        with pytest.raises(ValueError, match=message):
            make_problem(control_dim=2, control_lower=np.zeros(2), control_upper=np.ones(2),
                         gated_dims=gated)

    def test_gated_dims_read_only(self):
        # a caller could otherwise put a range that the checks refuse in
        # place after they ran
        given = {np.int64(0): (0.2, 0.5)}
        problem = make_problem(gated_dims=given)
        with pytest.raises(TypeError):
            problem.gated_dims[0] = (9.0, 3.0)
        given[0] = (9.0, 3.0)
        assert dict(problem.gated_dims) == {0: (0.2, 0.5)}
        assert make_problem().gated_dims == {}

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

    @pytest.mark.parametrize("given", [
        ("hamiltonian_argmin",),
        ("hamiltonian_argmin_jacobian",),
        ("hamiltonian_state_hessian",),
        ("hamiltonian_argmin", "hamiltonian_argmin_jacobian"),
        ("hamiltonian_argmin", "hamiltonian_state_hessian"),
        ("hamiltonian_argmin_jacobian", "hamiltonian_state_hessian"),
    ], ids="+".join)
    def test_pricing_hooks_come_together(self, given):
        # a priced control without its derivatives would leave the shooting
        # tangent to differences of the hook
        hooks = {
            "hamiltonian_argmin": lambda t, x, p, lo, hi: [lo],
            "hamiltonian_argmin_jacobian": lambda t, x, p, lo, hi, u: np.zeros((1, 2)),
            "hamiltonian_state_hessian": lambda t, x, p, U: np.zeros((len(U), 1, 2)),
        }
        message = (
            "^give hamiltonian_argmin, hamiltonian_argmin_jacobian and hamiltonian_state_hessian, or none$"
        )
        with pytest.raises(ValueError, match=message):
            make_problem(**{name: hooks[name] for name in given})
        assert make_problem(**hooks).hamiltonian_state_hessian is hooks["hamiltonian_state_hessian"]

    def test_running_cost_form_required(self):
        # the running cost comes in one form, the block hook: the scalar
        # form is no field, and the block hook is required
        with pytest.raises(TypeError, match="unexpected keyword argument 'running_cost'"):
            make_problem(running_cost=lambda t, x, u: 0.0)
        # its state gradient, which dH/dx is assembled from, comes with it
        message = "^a problem needs running_cost_batch and running_cost_state_gradient$"
        with pytest.raises(ValueError, match=message):
            make_problem(running_cost_batch=None)
        with pytest.raises(ValueError, match=message):
            make_problem(running_cost_state_gradient=None)

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
#: the most values that the finiteness test reads as Python floats
FEW = model._FEW_VALUES
U = np.zeros((K, 1))

#: every problem hook: the shape its output must have, and an evaluation
#: that calls it
HOOKS = {
    "drift": ((N,), lambda pr: eval_drift(pr, 0.5, X)),
    "drift_jacobian": ((N, N), lambda pr: eval_drift_jacobian(pr, 0.5, X)),
    "running_cost_batch": ((K,), lambda pr: eval_running_cost_batch(pr, 0.5, X, U)),
    "running_cost_state_gradient": (
        (K, N), lambda pr: grad_h_state(pr, 0.5, X, X, U, np.full(K, 1.0 / K))
    ),
    "terminal_cost": ((), lambda pr: eval_terminal_cost(pr, X)),
    "terminal_gradient": ((N,), lambda pr: terminal_costate(pr, X)),
    "terminal_hessian": ((N, N), lambda pr: terminal_hessian(pr, X)),
    "hamiltonian_argmin_jacobian": (
        (1, 2 * N), lambda pr: eval_hamiltonian_argmin_jacobian(pr, 0.5, X, X, U[0], U[0], U[0])
    ),
    "hamiltonian_state_hessian": ((K, N, N + 1), lambda pr: eval_hamiltonian_state_hessian(pr, 0.5, X, X, U)),
}
TIMELESS = ("terminal_cost", "terminal_gradient", "terminal_hessian")
PRICING = ("hamiltonian_argmin", "hamiltonian_argmin_jacobian", "hamiltonian_state_hessian")


def hook_problem(hook, value):
    """A two-state problem whose ``hook`` returns ``value`` at every call."""
    fields = dict(state_dim=2, initial_state=np.zeros(2), control_matrix=np.ones((1, 2)))
    if hook in TIMELESS:  # the terminal hooks come together
        fields.update(zip(TIMELESS, (lambda x: 0.0, lambda x: X, lambda x: np.eye(N))))
    if hook in PRICING:  # and so do the pricing hooks
        fields.update(dict.fromkeys(PRICING, lambda *args: None))
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

    @pytest.mark.parametrize("size", [FEW, FEW + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named_on_both_sides_of_the_bound(self, size, bad):
        value = np.ones(size)
        assert model._checked(value, (size,), "hook", 0.5).tolist() == value.tolist()
        value[-1] = bad
        with pytest.raises(NonFiniteEvaluation, match="^hook returned a non-finite value at t=0.5$"):
            model._checked(value, (size,), "hook", 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_affine_rows_name_both_hooks(self):
        problem = hook_problem("drift", np.full(2, 1e308))
        with pytest.raises(NonFiniteEvaluation, match="drift \\+ u @ control_matrix returned"):
            eval_dynamics_batch(problem, 0.5, X, np.full((K, 1), 1e308))


def planted(shape, index, value):
    """A float array of ``shape`` with ``value`` at flat ``index``."""
    a = np.random.default_rng(0).uniform(-1.0, 1.0, size=shape)
    if index is not None:
        a.flat[index] = value
    return a


class TestAllFinite:
    """``_all_finite`` against ``np.isfinite(a).all()`` on both sides of
    ``_FEW_VALUES``, where it switches from Python floats to an array pass."""

    @pytest.mark.parametrize("size", [0, 1, FEW, FEW + 1, 4096])
    def test_finite_values_pass(self, size):
        assert model._all_finite(planted((size,), None, None))

    @pytest.mark.parametrize("size", [1, FEW, FEW + 1, 4096])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_value_fails(self, size, where, bad):
        index = {"first": 0, "middle": size // 2, "last": size - 1}[where]
        a = planted((size,), index, bad)
        assert model._all_finite(a) is False
        assert bool(np.isfinite(a).all()) is False

    @pytest.mark.parametrize("shape", [(), (4, FEW // 4), (5, FEW // 4), (2, 3, 4), (3, 4, FEW)])
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    def test_any_shape(self, shape, bad):
        a = planted(shape, None if bad is None else -1, bad)
        assert model._all_finite(a) is bool(np.isfinite(a).all()) is (bad is None)

    @pytest.mark.parametrize("size", [2, FEW + 1])
    def test_values_whose_sum_overflows_pass(self, size):
        assert model._all_finite(np.full(size, 1e308))
