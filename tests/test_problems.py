import dataclasses
import math

import numpy as np
import pytest

from chatterctl import (
    ConfigError,
    DemandModel,
    GridParams,
    ShootingConfig,
    TimePartition,
    build_lqr,
    build_supply_chain,
    eval_hamiltonian,
    grad_h_state,
    lqr_analytic_solution,
    propagate_forward,
    solve,
    step_state,
    synthetic_demand,
    terminal_costate,
)
from chatterctl.model import eval_drift, eval_dynamics_batch, eval_running_cost_batch
from chatterctl.problems import (
    CUSTOMERS,
    DEMAND_PROFILES,
    CustomerRecord,
    ITEMS,
    SUPPLIERS,
    ItemRecord,
    SupplierRecord,
)
from oracles import (
    central_difference,
    grocer_hamiltonian_min,
    item_fixed_cost_envelope,
    item_unit_cost_envelope,
    level_ranges,
    lqr_hamiltonian_flow,
    market_step_oracle,
    reference_drift,
    reference_net_cost_rate,
    reference_scalar_grid,
    unmet_demand_weights,
)

SEASONAL = synthetic_demand("seasonal", 5.0, 0.5)


def cost_at(problem, t, x, u):
    """The running cost at one control, evaluated as a one-row batch."""
    return eval_running_cost_batch(problem, t, x, np.asarray(u)[None, :])[0]


def dynamics_at(problem, t, x, u):
    """The dynamics at one control, evaluated as a one-row batch."""
    return eval_dynamics_batch(problem, t, x, np.asarray(u)[None, :])[0]


def rk4(f, y0, t0, t1, steps):
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def lqr_bvp_rhs(t, y):
    # optimality system with u = -p/2 substituted, cost appended as y[2]
    x, p, _ = y
    return np.array([x - p / 2.0, -2.0 * x - p, x * x + p * p / 4.0])


def rk4_shooting_oracle():
    """Independent solution of the boundary value problem: secant iteration
    on p(0) over a fine fixed-step RK4 integration."""

    def p_terminal(p0):
        return rk4(lqr_bvp_rhs, [10.0, p0, 0.0], 0.0, 1.0, 4000)[1]

    a, b = 0.0, 60.0
    fa, fb = p_terminal(a), p_terminal(b)
    for _ in range(60):
        c = b - fb * (b - a) / (fb - fa)
        fc = p_terminal(c)
        a, fa, b, fb = b, fb, c, fc
        if abs(fc) < 1e-13:
            break
    return b


class TestLqrProblem:
    def test_hamiltonian_at_start(self):
        problem = build_lqr()
        x, p = np.array([10.0]), np.array([0.0])
        assert eval_hamiltonian(problem, 0.0, x, p, np.array([0.0])) == 100.0

    def test_dynamics_cancel(self):
        problem = build_lqr()
        assert dynamics_at(problem, 0.0, np.array([1.0]), np.array([-1.0]))[0] == 0.0

    def test_terminal_costate_is_zero(self):
        problem = build_lqr()
        assert terminal_costate(problem, np.array([17.0]))[0] == 0.0

    def test_control_bounds_contain_optimal_control(self):
        problem = build_lqr()
        for t in np.linspace(0.0, 1.0, 21):
            u = lqr_analytic_solution(float(t))[2]
            assert problem.control_lower[0] < u < problem.control_upper[0]


class TestLqrAnalyticSolution:
    def test_boundary_conditions(self):
        x0, p0, u0, _ = lqr_analytic_solution(0.0)
        assert x0 == pytest.approx(10.0, abs=1e-12)
        xT, pT, uT, _ = lqr_analytic_solution(1.0)
        assert abs(pT) < 1e-12
        assert u0 == -p0 / 2.0 and uT == -pT / 2.0

    def test_stationarity_identity(self):
        for t in (0.0, 0.3, 0.77, 1.0):
            _, p, u, _ = lqr_analytic_solution(t)
            assert 2.0 * u + p == 0.0

    def test_agrees_with_rk4_shooting(self):
        p0_numeric = rk4_shooting_oracle()
        _, p0_closed, _, j_closed = lqr_analytic_solution(0.0)
        assert abs(p0_numeric - p0_closed) <= 1e-8
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = rk4(lqr_bvp_rhs, [10.0, p0_numeric, 0.0], 0.0, t, max(1, int(4000 * t)))
            x_c, p_c, _, _ = lqr_analytic_solution(t)
            assert abs(y[0] - x_c) <= 1e-8
            assert abs(y[1] - p_c) <= 1e-8
        j_numeric = rk4(lqr_bvp_rhs, [10.0, p0_numeric, 0.0], 0.0, 1.0, 4000)[2]
        assert abs(j_numeric - j_closed) <= 1e-8

    def test_rejects_time_outside_horizon(self):
        with pytest.raises(ValueError):
            lqr_analytic_solution(1.5)


class TestLqrFlow:
    def test_identity_at_zero(self):
        assert np.allclose(lqr_hamiltonian_flow(0.0), np.eye(2), atol=1e-14)

    def test_matches_matrix_ode_integration(self):
        A = np.array([[1.0, -0.5], [-2.0, -1.0]])
        Phi = rk4(lambda t, y: (A @ y.reshape(2, 2)).ravel(), np.eye(2).ravel(), 0.0, 1.0, 2000)
        assert np.allclose(lqr_hamiltonian_flow(1.0), Phi.reshape(2, 2), atol=1e-9)

    def test_propagates_analytic_solution(self):
        x0, p0, _, _ = lqr_analytic_solution(0.0)
        for t in (0.25, 0.6, 1.0):
            xt, pt, _, _ = lqr_analytic_solution(t)
            flowed = lqr_hamiltonian_flow(t) @ np.array([x0, p0])
            assert np.allclose(flowed, [xt, pt], atol=1e-10)


class TestTables:
    def test_envelope_fixed_costs(self):
        beta = item_fixed_cost_envelope()
        assert np.array_equal(beta, [17.0, 15.0, 60.0, 85.0, 45.0])
        assert beta.sum() == 222.0

    def test_envelope_unit_costs(self):
        alpha = item_unit_cost_envelope()
        assert np.array_equal(alpha, [45.0, 120.0, 65.0, 66.0, 75.0])

    def test_unmet_demand_weight_numerator(self):
        w = unmet_demand_weights()
        total = 1.65 * 129.0  # sum_i w_i * sum_j delta_j
        assert w[0, 2] == pytest.approx(39.0 / total, rel=1e-14)

    def test_record_counts(self):
        assert len(ITEMS) == 5
        assert len(CUSTOMERS) == 3
        assert len(SUPPLIERS) == 14

    def test_supplier_quantity_bounds_ordered(self):
        for rec in SUPPLIERS:
            assert 0 <= rec.min_qty <= rec.max_qty

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("field", ["unit_cost", "fixed_cost"])
    def test_supplier_costs_nonnegative_and_finite(self, field, value):
        # a NaN unit cost used to build a grocer that failed only at interval 0
        fields = dict(item_id=0, supplier="s", unit_cost=1.0, fixed_cost=1.0, min_qty=0.0, max_qty=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative and finite, got "):
            SupplierRecord(**fields)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("field", ["inv_carry_cost", "penalty"])
    def test_item_costs_nonnegative_and_finite(self, field, value):
        fields = dict(item_id=0, name="i", inv_carry_cost=1.0, penalty=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative and finite, got "):
            ItemRecord(**fields)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: SupplierRecord(0, "s", 1.0, 1.0, 2.0, 1.0), r"^need 0 <= min_qty <= max_qty$"),
            (lambda: SupplierRecord(0, "s", 1.0, 1.0, -1.0, 1.0), r"^need 0 <= min_qty <= max_qty$"),
            (lambda: CustomerRecord(1, 0.0), r"^importance must lie in \(0, 1\]$"),
            (lambda: CustomerRecord(1, 1.5), r"^importance must lie in \(0, 1\]$"),
        ],
        ids=["min-above-max", "negative-min", "zero-importance", "importance-above-one"],
    )
    def test_record_ranges_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_zero_costs_accepted(self):
        assert SupplierRecord(0, "s", 0.0, 0.0, 0.0, 1.0).unit_cost == 0.0
        assert ItemRecord(0, "i", 0.0, 0.0).penalty == 0.0


class TestSyntheticDemand:
    def test_constant_zero(self):
        model = synthetic_demand("constant", 0.0)
        assert model.theta(0.3, 1, 2) == 0.0

    def test_pulse_window(self):
        model = synthetic_demand("pulse", 5.0, 1.0)
        assert model.theta(1.5, 2, 0) == 5.0
        assert model.theta(0.5, 2, 0) == 0.0
        assert model.theta(2.5, 2, 0) == 0.0

    def test_seasonal_peak_equals_amplitude(self):
        model = synthetic_demand("seasonal", 4.0, 1.0)
        assert model.theta(0.25, 1, 0) == pytest.approx(4.0, abs=1e-12)
        assert model.theta(0.25, 3, 0) == pytest.approx(1.0, abs=1e-12)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_demand("constant", -1.0)
        with pytest.raises(ConfigError):
            synthetic_demand("seasonal", 1.0, 0.0)
        with pytest.raises(ConfigError):
            synthetic_demand("weekly", 1.0)
        # non-finite values are refused by name; an infinite pulse period
        # would be a demand that never starts
        for profile in DEMAND_PROFILES:
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match="amplitude"):
                    synthetic_demand(profile, value, 0.5)
                with pytest.raises(ConfigError, match="period"):
                    synthetic_demand(profile, 1.0, value)


def market_rates(problem, t):
    """The demand rates on the market rows of the drift (item-major), at
    x = 0."""
    return problem.drift(t, np.zeros(problem.state_dim))[N_ITEMS:]


N_ITEMS = len(ITEMS)


class TestDemandAndCustomerTable:
    """The seasonal model scales its curve by the importance of the records
    the problem is built with; a model that cannot rate a customer of the
    table is refused when the problem is built."""

    @pytest.mark.parametrize("t", [0.0, 0.125, 0.3, 0.61])
    def test_seasonal_rates_use_the_given_importance(self, t):
        customers = [CustomerRecord(1, 0.1), CustomerRecord(7, 0.5), CustomerRecord(3, 0.25)]
        problem = build_supply_chain(SEASONAL, 1.0, 200, customers=customers)
        curve = (1.0 + math.sin(2.0 * math.pi * t / 0.5)) / 2.0
        expected = [c.importance * 5.0 * (1.0 + math.sin(2.0 * math.pi * t / 0.5)) / 2.0
                    for _ in ITEMS for c in customers]
        assert market_rates(problem, t).tolist() == expected
        if t == 0.125:  # the peak: the importances themselves, times the amplitude
            assert curve == 1.0 and expected[:3] == [0.5, 2.5, 1.25]

    def test_default_tables_keep_the_theta_bits(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        for t in np.linspace(0.0, 1.0, 41).tolist():
            expected = [SEASONAL.theta(t, c.customer_id, it.item_id) for it in ITEMS for c in CUSTOMERS]
            assert market_rates(problem, t).tolist() == expected

    def test_seasonal_curve_evaluated_once_per_drift_call(self, monkeypatch):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        calls, sin = [], math.sin

        def counted(value):
            calls.append(value)
            return sin(value)

        monkeypatch.setattr(math, "sin", counted)
        problem.drift(0.3, np.zeros(20))
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["built-in table", "dict"])
    def test_model_that_cannot_rate_an_id_refused_at_build(self, kind):
        customers = [CustomerRecord(1, 1.0), CustomerRecord(7, 0.5)]
        if kind == "built-in table":
            # the seasonal theta on its own knows only the built-in ids
            demand = DemandModel(SEASONAL.theta, "seasonal theta")
        else:
            table = {1: 2.0, 2: 1.0, 3: 0.5}
            demand = DemandModel(lambda t, c, i: table[c], "table")
        with pytest.raises(ConfigError, match="cannot rate customer id 7"):
            build_supply_chain(demand, 1.0, 200, customers=customers)
        build_supply_chain(demand, 1.0, 200)

    def test_custom_models_keep_working(self):
        demand = DemandModel(lambda t, c, i: float(c) + 0.1 * i + t, "linear")
        problem = build_supply_chain(demand, 1.0, 200)
        t = 0.4
        expected = [float(c.customer_id) + 0.1 * it.item_id + t for it in ITEMS for c in CUSTOMERS]
        assert market_rates(problem, t).tolist() == expected


class TestSupplyChainProblem:
    def test_dimensions(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        assert problem.state_dim == 20
        assert problem.control_dim == 29

    def test_zero_everything_gives_zero_cost(self):
        demand = synthetic_demand("constant", 0.0)
        problem = build_supply_chain(demand, 1.0, 100)
        x = np.zeros(20)
        u = np.zeros(29)
        assert cost_at(problem, 0.0, x, u) == 0.0

    def test_market_row_dynamics(self):
        # one market row with Z=5, theta=2, v=1 must drain at rate 4
        demand = synthetic_demand("constant", 2.0)
        problem = build_supply_chain(demand, 1.0, 200)
        x = np.zeros(20)
        x[5] = 5.0  # item 0, customer 1
        u = np.zeros(29)
        u[14] = 1.0  # delivery (customer 1, item 0)
        zdot = dynamics_at(problem, 0.0, x, u)[5]
        assert zdot == pytest.approx(-4.0, abs=1e-14)

    def test_market_row_dynamics_time_varying_demand(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        x = np.zeros(20)
        x[5] = 5.0
        u = np.zeros(29)
        u[14] = 1.0
        theta = SEASONAL.theta(0.3, 1, 0)
        zdot = dynamics_at(problem, 0.3, x, u)[5]
        assert zdot == pytest.approx(-5.0 + theta - 1.0, rel=1e-14)

    def test_market_oracle_examples(self):
        assert market_step_oracle(5.0, 2.0, 1.0, 1.0) == 1.0
        assert market_step_oracle(0.0, 0.0, 0.0, 0.5) == 0.0

    def test_market_oracle_matches_step_state(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = rng.uniform(0.0, 10.0, 20)
            u = rng.uniform(problem.control_lower, problem.control_upper)
            dt = float(rng.uniform(0.001, 0.004))
            t = float(rng.uniform(0.0, 1.0))
            f_vals = eval_dynamics_batch(problem, t, x, u[None, :])
            stepped, _ = step_state(problem, x, np.array([1.0]), f_vals, dt)
            for j in range(5):
                for c in range(3):
                    idx = 5 + j * 3 + c
                    theta = SEASONAL.theta(t, c + 1, j)
                    v = u[14 + c * 5 + j]
                    oracle = market_step_oracle(x[idx], theta, v, dt)
                    assert stepped[idx] == pytest.approx(max(oracle, 0.0), abs=1e-12)

    def test_inventory_row_aggregates_orders_and_deliveries(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        x = np.zeros(20)
        x[0] = 2.0
        u = np.zeros(29)
        u[0] = 7.0  # New Hampshire apples
        u[1] = 4.0  # Colorado apples
        u[14] = 1.5  # customer 1 apples
        u[19] = 0.5  # customer 2 apples
        xdot = dynamics_at(problem, 0.0, x, u)[0]
        assert xdot == pytest.approx(-2.0 + 11.0 - 2.0, rel=1e-14)

    def test_analytic_gradient_matches_fd(self):
        # dH/dx from the cost's state gradient and the drift Jacobian,
        # against a central difference of H itself
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        rng = np.random.default_rng(123)
        for _ in range(20):
            x = rng.uniform(0.0, 15.0, 20)
            p = rng.uniform(-50.0, 50.0, 20)
            u = rng.uniform(problem.control_lower, problem.control_upper)
            t = float(rng.uniform(0.0, 1.0))
            analytic = grad_h_state(problem, t, x, p, u[None, :], np.ones(1))
            fd = central_difference(lambda y: eval_hamiltonian(problem, t, y, p, u), x)
            tol = max(1e-6, 1e-4 * float(np.linalg.norm(analytic)))
            assert np.max(np.abs(analytic - fd)) <= tol

    def test_signed_square_cost_shape(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        x = np.zeros(20)
        # revenue with no stock cost: negative net rate, cost negative
        u = np.zeros(29)
        u[14:] = 1.0
        g = cost_at(problem, 0.0, x, u)
        assert g < 0.0
        # pure ordering: positive net rate, cost positive
        v = np.zeros(29)
        v[0] = 7.0
        assert cost_at(problem, 0.0, x, v) > 0.0

    def test_revenue_table(self):
        # every customer pays twice the item's unit-cost envelope at every t
        x, u = np.zeros(20), np.zeros(29)
        u[14] = 1.0  # customer 0 takes one unit rate of item 0, nothing else moves
        default = 2.0 * item_unit_cost_envelope()[0]
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        for t in (0.0, 0.5, 1.0):
            assert cost_at(problem, t, x, u) == -(default**2)

    def test_signed_square_is_monotone_and_vanishes_at_zero(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        x = np.zeros(20)
        # sweep the net rate through zero by scaling deliveries (pure revenue)
        previous = None
        for scale in np.linspace(0.0, 2.0, 9):
            u = np.zeros(29)
            u[14:] = scale
            g = cost_at(problem, 0.0, x, u)
            if scale == 0.0:
                assert g == 0.0
            if previous is not None:
                assert g < previous  # more revenue, lower signed-square cost
            previous = g

    def test_unmet_demand_stays_nonnegative_without_deliveries(self):
        import dataclasses

        demand = synthetic_demand("seasonal", 5.0, 0.5)
        problem = build_supply_chain(demand, 1.0, 50)
        # pin every delivery rate to zero; unmet demand must still stay >= 0
        upper = np.array(problem.control_upper)
        upper[14:] = 0.0
        problem = dataclasses.replace(problem, control_upper=upper)
        part = TimePartition.uniform(1.0, 50)
        traj = propagate_forward(problem, part, np.zeros(20), GridParams(3, 64))
        assert np.all(traj.controls()[:, 14:] == 0.0)
        assert np.all(traj.states() >= -1e-9)

    def test_states_stay_nonnegative_with_live_deliveries(self):
        demand = synthetic_demand("seasonal", 5.0, 0.5)
        problem = build_supply_chain(demand, 1.0, 50)
        part = TimePartition.uniform(1.0, 50)
        traj = propagate_forward(problem, part, np.zeros(20), GridParams(3, 64))
        assert np.all(traj.states() >= -1e-9)
        assert traj.clamp_count == 0

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            build_supply_chain(SEASONAL, 1.0, 0)
        with pytest.raises(ConfigError):
            build_supply_chain(SEASONAL, 10.0, 5)  # dt too large
        # the fixed costs have one rule, charged while an item is ordered
        with pytest.raises(TypeError, match="fixed_cost_mode"):
            build_supply_chain(SEASONAL, 1.0, 100, fixed_cost_mode="on-order")

    @pytest.mark.parametrize("intervals", [2.5, True, float("inf")], ids=["fraction", "bool", "inf"])
    def test_intervals_must_be_a_count(self, intervals):
        # 2.5 would build dt = 0.4, True one interval and inf dt = 0
        with pytest.raises(ConfigError, match=f"^intervals must be an integer >= 1, got {intervals!r}$"):
            build_supply_chain(SEASONAL, 1.0, intervals)

    def test_numpy_integer_intervals_accepted(self):
        assert build_supply_chain(SEASONAL, 1.0, np.int64(200)).state_dim == 20
        with pytest.raises(ConfigError, match="step size 2 exceeds 1"):
            build_supply_chain(SEASONAL, 10.0, np.int32(5))

    def test_negative_demand_rejected_at_evaluation(self):
        from chatterctl import DemandModel

        bad = DemandModel(lambda t, c, i: -1.0, "negative")
        problem = build_supply_chain(bad, 1.0, 100)
        with pytest.raises(ConfigError):
            dynamics_at(problem, 0.0, np.zeros(20), np.zeros(29))

    def test_gated_dims_cover_supplier_rows(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        assert set(problem.gated_dims) == set(range(14))
        assert problem.gated_dims[0] == (7.0, 14.0)
        assert problem.control_upper[0] == 14.0
        assert problem.control_upper[14] == 20.0
        # read-only: a range written in after the build would skip the
        # checks that refuse it, and every propagation would then use it
        with pytest.raises(TypeError):
            problem.gated_dims[0] = (9.0, 3.0)
        assert problem.gated_dims[0] == (7.0, 14.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(horizon=0.0), "^horizon must be positive$"),
            (dict(horizon=-1.0), "^horizon must be positive$"),
            (dict(suppliers=SUPPLIERS + (dataclasses.replace(SUPPLIERS[0], item_id=5),)),
             f"^supplier {SUPPLIERS[0].supplier!r} references unknown item 5$"),
            (dict(suppliers=(dataclasses.replace(SUPPLIERS[0], item_id=-1),)),
             f"^supplier {SUPPLIERS[0].supplier!r} references unknown item -1$"),
        ],
        ids=["zero-horizon", "negative-horizon", "item-past-the-table", "negative-item"],
    )
    def test_build_arguments_checked(self, changes, message):
        arguments = {**dict(demand=SEASONAL, horizon=1.0, intervals=100), **changes}
        with pytest.raises(ConfigError, match=message):
            build_supply_chain(**arguments)


#: both forms of J sum at most 50 terms (29 control columns, the fixed cost,
#: 20 state terms), in different orders, so each lies within 50 eps of the
#: exact rate and they differ by at most 100 eps, relative to the sum of the
#: terms' magnitudes; reading J back from J|J| adds about 2 eps |J|.  128 eps
#: of that magnitude covers both (the blocks below reach about 1.4 eps).
NET_RATE_TOL = 128 * np.finfo(float).eps


def grocer_blocks(rng, rows=64):
    """Control blocks with negative entries, exact cancellations and every
    supplier column of an item at zero, in C and in F order."""
    U = rng.normal(0.0, 10.0, (rows, 29))
    for row in range(0, rows, 2):
        # every supplier of one item off: mu_i = 0, no fixed cost
        item = rng.integers(5)
        U[row, [s for s, rec in enumerate(SUPPLIERS) if rec.item_id == item]] = 0.0
    U[1::4, 1] = -U[1::4, 0]  # Colorado cancels New Hampshire; apples' total is 0
    U[3::4, 14:] = rng.uniform(0.0, 20.0, (len(U[3::4]), 15))
    return [np.ascontiguousarray(U), np.asfortranarray(U)]


def signed_root(g):
    """J from the running cost J|J|."""
    return np.copysign(np.sqrt(np.abs(g)), g)


class TestGrocerKernels:
    """The grocer's hooks are array kernels shaped for the solver's
    column-major level block; ``oracles`` keeps their table form."""

    def test_net_rate_matches_table_form(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        rng = np.random.default_rng(22)
        for _ in range(8):
            x = rng.normal(0.0, 5.0, 20)
            t = float(rng.uniform(0.0, 1.0))
            for U in grocer_blocks(rng):
                J = signed_root(problem.running_cost_batch(t, x, U))
                J_ref, _, magnitude = reference_net_cost_rate(U, x)
                assert np.all(np.abs(J - J_ref) <= NET_RATE_TOL * magnitude)

    def test_fixed_cost_indicator_matches_exactly(self):
        # no unit cost and item i's fixed costs summing to 2**i: at x = 0 the
        # net rate is the indicator's bit pattern, in exact arithmetic
        first = {}
        suppliers = [
            dataclasses.replace(
                rec, unit_cost=0.0,
                fixed_cost=2.0 ** rec.item_id if first.setdefault(rec.item_id, s) == s else 0.0,
            )
            for s, rec in enumerate(SUPPLIERS)
        ]
        problem = build_supply_chain(SEASONAL, 1.0, 200, suppliers=suppliers)
        x = np.zeros(20)
        for U in grocer_blocks(np.random.default_rng(5)):
            J = np.sqrt(problem.running_cost_batch(0.3, x, U))
            J_ref, on, _ = reference_net_cost_rate(U, x, suppliers)
            assert np.array_equal(J, on @ 2.0 ** np.arange(5))
            assert np.array_equal(J, J_ref)
        # the blocks hold both off and on items
        assert 0 < on.sum() < on.size

    @pytest.mark.parametrize(
        "demand",
        [SEASONAL, synthetic_demand("constant", 2.5), synthetic_demand("pulse", 4.0, 0.25)],
    )
    def test_drift_matches_table_form(self, demand):
        problem = build_supply_chain(demand, 1.0, 200)
        rng = np.random.default_rng(3)
        for t in (0.0, 0.2, 0.3, 0.55, 1.0):
            x = rng.normal(0.0, 5.0, 20)
            assert np.array_equal(problem.drift(t, x), reference_drift(demand, t, x))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-300])
    def test_drift_rejects_bad_rates(self, rate):
        problem = build_supply_chain(DemandModel(lambda t, c, i: rate, "bad"), 1.0, 100)
        with pytest.raises(ConfigError, match="negative or non-finite rate at t=0.5"):
            problem.drift(0.5, np.zeros(20))

    def test_drift_jacobian_is_one_read_only_minus_identity(self):
        problem = build_supply_chain(SEASONAL, 1.0, 200)
        jac = problem.drift_jacobian(0.1, np.zeros(20))
        assert jac is problem.drift_jacobian(0.7, np.ones(20))
        assert np.array_equal(jac, -np.eye(20)) and not jac.flags.writeable
        # shared by every call, so no caller may turn writing back on
        with pytest.raises(ValueError):
            jac.setflags(write=True)


#: reduced grocers with the first customer, and the values per control
#: column of the exhaustive grid each is checked on: one item with its
#: first two suppliers (m = 3: 0 plus 141 points per order column, 281 on
#: the delivery column), and two items with one supplier each (m = 4: 41
#: values per column, 0 among them on an order column)
REDUCED_GROCERS = {
    "one item, two suppliers": (SUPPLIERS[:2], CUSTOMERS[:1], ITEMS[:1], (142, 142, 281)),
    "two items, one supplier each": ((SUPPLIERS[0], SUPPLIERS[2]), CUSTOMERS[:1], ITEMS[:2], (41,) * 4),
}


def grid_hamiltonian_min(problem, t, x, p, lo, hi, counts, suppliers, customers, items):
    """The least Hamiltonian over the whole product of the
    ``reference_scalar_grid`` values of every control column (``counts``
    values each over ``[lo, hi]``), and the control that attains it.  The
    net cost rate is the table form's, split into the part of the order
    columns and that of the delivery columns, which it adds."""
    S, m = len(suppliers), problem.control_dim
    grids = [reference_scalar_grid(problem.gated_dims.get(j), j, lo[j], hi[j], count)
             for j, count in enumerate(counts)]
    orders, deliveries = (
        np.stack([g.ravel() for g in np.meshgrid(*part, indexing="ij")], axis=1)
        for part in (grids[:S], grids[S:])
    )

    def rate(U):
        return reference_net_cost_rate(U, x, suppliers, customers, items)[0]

    J_orders = rate(np.pad(orders, ((0, 0), (0, m - S))))
    J_deliveries = rate(np.pad(deliveries, ((0, 0), (S, 0)))) - rate(np.zeros((1, m)))
    q = problem.control_matrix @ p
    best, u = math.inf, None
    for start in range(0, len(orders), 1024):
        J = J_orders[start:start + 1024, None] + J_deliveries
        H = J * np.abs(J) + ((orders[start:start + 1024] @ q[:S])[:, None] + deliveries @ q[S:])
        k = np.unravel_index(np.argmin(H), H.shape)
        if H[k] < best:
            best, u = float(H[k]), np.concatenate([orders[start + k[0]], deliveries[k[1]]])
    return best + float(p @ eval_drift(problem, t, x)), u


@pytest.fixture(scope="module")
def desk_pricing():
    """The converged desk run (seasonal demand, 200 intervals, gamma 1, p0
    = 0), its partition, and the exact least Hamiltonian at every interval
    over the ranges that its level grid searched."""
    problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
    partition = TimePartition.uniform(1.0, 200)
    config = ShootingConfig(p0_initial=np.zeros(20), gamma=1.0)
    result = solve(problem, partition, config, GridParams(101, 4096))
    assert result.converged
    trajectory = result.trajectory
    points = zip(partition.times.tolist(), partition.deltas.tolist(), trajectory.x, trajectory.p)
    h_min = [
        grocer_hamiltonian_min(problem, t, x, p, *level_ranges(problem, t, x, dt))[0]
        for t, dt, x, p in points
    ]
    return trajectory, partition, np.array(h_min)


def pricing_gap(trajectory, partition, h_min) -> float:
    """The integrated excess of the run's Hamiltonian over the exact minimum."""
    return float(partition.deltas @ (trajectory.h_values - h_min))


class TestGrocerHamiltonianMin:
    @pytest.mark.parametrize("case", sorted(REDUCED_GROCERS))
    def test_reduced_grocer_against_an_exhaustive_grid(self, case):
        # p of either sign, up to 2e5 on inventory and 2e3 on unmet demand
        # (the converged desk costate reaches about 1e5 and 1e2); every
        # second draw cuts the delivery ranges
        suppliers, customers, items, counts = REDUCED_GROCERS[case]
        problem = build_supply_chain(
            synthetic_demand("seasonal", 5.0, 0.5), 1.0, 10,
            suppliers=suppliers, customers=customers, items=items,
        )
        S, n_items, n, m = len(suppliers), len(items), problem.state_dim, problem.control_dim
        rng = np.random.default_rng(20260901)
        for draw in range(10):
            t = float(rng.uniform(0.0, 1.0))
            x = np.concatenate([rng.uniform(0.0, 20.0, n_items), rng.uniform(0.0, 2.0, n - n_items)])
            p = np.concatenate([rng.uniform(-2e5, 2e5, n_items), rng.uniform(-2e3, 2e3, n - n_items)])
            lo, hi = np.array(problem.control_lower), np.array(problem.control_upper)
            if draw % 2:
                lo[S:], hi[S:] = np.sort(rng.uniform(0.0, 20.0, (2, m - S)), axis=0)
            h_min, u = grocer_hamiltonian_min(problem, t, x, p, lo, hi, suppliers, customers, items)
            scale = max(1.0, abs(h_min))
            assert abs(eval_hamiltonian(problem, t, x, p, u) - h_min) <= 1e-12 * scale
            assert np.all(lo <= u) and np.all(u <= hi)
            assert all(u[s] == 0.0 or rec.min_qty <= u[s] <= rec.max_qty for s, rec in enumerate(suppliers))
            h_grid, u_grid = grid_hamiltonian_min(
                problem, t, x, p, lo, hi, counts, suppliers, customers, items
            )
            assert abs(eval_hamiltonian(problem, t, x, p, u_grid) - h_grid) <= 1e-12 * max(1.0, abs(h_grid))
            assert h_grid >= h_min - 1e-9 * scale

    def test_desk_grid_never_beats_the_exact_minimum(self, desk_pricing):
        # a bound, not the fix: the grid's Hamiltonian lies above the exact
        # minimum, and the integrated gap shows by how much
        trajectory, partition, h_min = desk_pricing
        assert np.all(trajectory.h_values >= h_min - 1e-9 * np.maximum(1.0, np.abs(h_min)))
        gap, cost = pricing_gap(*desk_pricing), trajectory.accumulated_cost
        print(f"desk pricing gap {gap:.4e}, run cost {cost:.4e}")

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: the grocer has no pricing hook, so desk solves its level grid's "
        "problem (integrated pricing gap 3.92e8 against a run cost of 1.18e6)",
    )
    def test_desk_pricing_gap_is_zero(self, desk_pricing):
        trajectory = desk_pricing[0]
        assert abs(pricing_gap(*desk_pricing)) <= 1e-9 * abs(trajectory.accumulated_cost)
