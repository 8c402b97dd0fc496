"""Built-in benchmark problems and their validation oracles.

Two problems ship with the solver:

* a scalar linear-quadratic regulator with a closed-form optimum, used to
  validate the whole pipeline against an independent oracle, and
* a grocer's scheduling problem: five perishable items, fourteen suppliers
  and three ranked customers, with market and inventory conservation
  dynamics, supplier order quantities that are either zero or confined to a
  min/max range, and a signed-square cost.

The grocer's external parameters are embedded as records below and also
shipped as CSV fixtures (``data/``) so tests can diff the two.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from importlib import resources
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .model import Array, ControlProblem, _check_count, _readonly


class ConfigError(ValueError):
    """Inconsistent or out-of-range problem configuration."""


# ---------------------------------------------------------------------------
# Linear-quadratic benchmark
# ---------------------------------------------------------------------------

LQR_X0 = 10.0
LQR_HORIZON = 1.0
#: chosen to contain the analytic optimal control with margin; tests verify
LQR_CONTROL_BOUNDS = (-30.0, 5.0)


def build_lqr() -> ControlProblem:
    """Scalar regulator: minimize the integral of x^2 + u^2 subject to
    xdot = x + u, x(0) = 10, over a unit horizon, no terminal cost.

    H = x^2 + u^2 + p (x + u) is least at u = -p/2 (B = 1), clipped to the
    ranges, which ``hamiltonian_argmin`` returns in scalar arithmetic
    (``0.0 -`` gives p = 0 the control +0.0, not -0.0)."""

    def running_cost_batch(t, x, U):
        return x[0] ** 2 + U[:, 0] ** 2

    def running_cost_state_gradient(t, x, U):
        return np.full((len(U), 1), 2.0 * x[0])

    def hamiltonian_argmin(t, x, p, lo, hi):
        return [[min(max(0.0 - 0.5 * float(p[0]), float(lo[0])), float(hi[0]))]]

    # built once: every costate step reads it
    identity = _readonly(np.ones((1, 1)))

    return ControlProblem(
        state_dim=1,
        control_dim=1,
        horizon=LQR_HORIZON,
        initial_state=np.array([LQR_X0]),
        control_lower=np.array([LQR_CONTROL_BOUNDS[0]]),
        control_upper=np.array([LQR_CONTROL_BOUNDS[1]]),
        running_cost_batch=running_cost_batch,
        running_cost_state_gradient=running_cost_state_gradient,
        drift=lambda t, x: np.asarray(x, dtype=float),
        control_matrix=np.ones((1, 1)),
        drift_jacobian=lambda t, x: identity,
        hamiltonian_argmin=hamiltonian_argmin,
        name="lqr",
    )


def _lqr_modes() -> Tuple[float, float, float]:
    """Mode amplitudes (a, b) of the optimality system and the rate s.

    With the stationarity substitution u = -p/2 the optimality conditions are
    the linear system xdot = x - p/2, pdot = -2x - p, whose modes are
    exp(+-s t) with s = sqrt(2).  The boundary conditions x(0) = 10 and
    p(1) = 0 fix the amplitudes.
    """
    s = math.sqrt(2.0)
    ratio = math.exp(-2.0 * s) * (3.0 + 2.0 * s)  # a / b from p(1) = 0
    b = LQR_X0 / (1.0 + ratio)
    a = LQR_X0 * ratio / (1.0 + ratio)
    return a, b, s


def lqr_analytic_solution(t: float) -> Tuple[float, float, float, float]:
    """Closed-form optimum of the regulator at time ``t``.

    Returns ``(x, p, u, J_star)`` where J_star is the total optimal cost (a
    constant, returned alongside for convenience).
    """
    if not 0.0 <= t <= LQR_HORIZON:
        raise ValueError("t must lie in [0, 1]")
    a, b, s = _lqr_modes()
    ep = math.exp(s * t)
    em = math.exp(-s * t)
    x = a * ep + b * em
    p = 2.0 * (1.0 - s) * a * ep + 2.0 * (1.0 + s) * b * em
    u = -p / 2.0
    # closed-form integrals of x^2 and u^2 over [0, 1]
    c1 = 2.0 * (1.0 - s) * a
    d1 = 2.0 * (1.0 + s) * b
    grow = (math.exp(2.0 * s) - 1.0) / (2.0 * s)
    decay = (1.0 - math.exp(-2.0 * s)) / (2.0 * s)
    int_x2 = a * a * grow + 2.0 * a * b + b * b * decay
    int_u2 = 0.25 * (c1 * c1 * grow + 2.0 * c1 * d1 + d1 * d1 * decay)
    return x, p, u, int_x2 + int_u2


# ---------------------------------------------------------------------------
# Grocer's scheduling problem: external parameters
# ---------------------------------------------------------------------------


def _check_cost(name: str, value: float) -> None:
    # NaN fails every comparison, so a bare ``< 0`` test would let it through
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class ItemRecord:
    item_id: int
    name: str
    inv_carry_cost: float  # per unit inventory per unit time
    penalty: float  # per unit unmet demand per unit time

    def __post_init__(self):
        _check_cost("inv_carry_cost", self.inv_carry_cost)
        _check_cost("penalty", self.penalty)


@dataclass(frozen=True)
class SupplierRecord:
    item_id: int
    supplier: str
    unit_cost: float
    fixed_cost: float
    min_qty: float
    max_qty: float

    def __post_init__(self):
        _check_cost("unit_cost", self.unit_cost)
        _check_cost("fixed_cost", self.fixed_cost)
        if not 0 <= self.min_qty <= self.max_qty:
            raise ValueError("need 0 <= min_qty <= max_qty")


@dataclass(frozen=True)
class CustomerRecord:
    customer_id: int
    importance: float

    def __post_init__(self):
        if not 0.0 < self.importance <= 1.0:
            raise ValueError("importance must lie in (0, 1]")


@dataclass(frozen=True)
class DemandModel:
    """Continualized demand rate per (customer, item); must be nonnegative."""

    theta: Callable[[float, int, int], float]  # (t, customer_id, item_id) -> rate
    description: str = ""


ITEMS: Tuple[ItemRecord, ...] = (
    ItemRecord(0, "Apple", 100.0, 10.0),
    ItemRecord(1, "Orange", 150.0, 25.0),
    ItemRecord(2, "Banana", 200.0, 39.0),
    ItemRecord(3, "Tea", 50.0, 30.0),
    ItemRecord(4, "Olive", 65.0, 25.0),
)

CUSTOMERS: Tuple[CustomerRecord, ...] = (
    CustomerRecord(1, 1.0),
    CustomerRecord(2, 0.4),
    CustomerRecord(3, 0.25),
)

SUPPLIERS: Tuple[SupplierRecord, ...] = (
    SupplierRecord(0, "New Hampshire", 20.0, 10.0, 7.0, 14.0),
    SupplierRecord(0, "Colorado", 25.0, 7.0, 4.0, 11.0),
    SupplierRecord(1, "Florida", 50.0, 10.0, 5.0, 20.0),
    SupplierRecord(1, "California", 70.0, 5.0, 4.0, 13.0),
    SupplierRecord(2, "Costa Rica", 20.0, 15.0, 8.0, 13.0),
    SupplierRecord(2, "Italy", 30.0, 20.0, 2.0, 13.0),
    SupplierRecord(2, "India", 15.0, 25.0, 6.0, 25.0),
    SupplierRecord(3, "India", 12.0, 25.0, 2.0, 16.0),
    SupplierRecord(3, "Sri Lanka", 11.0, 25.0, 9.0, 26.0),
    SupplierRecord(3, "England", 20.0, 15.0, 6.0, 14.0),
    SupplierRecord(3, "Market", 23.0, 20.0, 2.0, 18.0),
    SupplierRecord(4, "Greece", 20.0, 15.0, 15.0, 17.0),
    SupplierRecord(4, "Italy", 25.0, 12.0, 10.0, 22.0),
    SupplierRecord(4, "Market", 30.0, 18.0, 11.0, 14.0),
)

N_ITEMS = len(ITEMS)
#: when the fixed ordering costs are charged (see ``build_supply_chain``)
FIXED_COST_MODES = ("on-order", "always")
#: bound on per-(customer, item) delivery rates
DELIVERY_RATE_MAX = 20.0
#: every customer pays this multiple of the item's unit-cost envelope
REVENUE_FACTOR = 2.0
#: starting stock of every item
INITIAL_INVENTORY = 10.0


# ---------------------------------------------------------------------------
# Synthetic demand
# ---------------------------------------------------------------------------

_IMPORTANCE_BY_ID: Dict[int, float] = {c.customer_id: c.importance for c in CUSTOMERS}

DEMAND_PROFILES = ("constant", "seasonal", "pulse")


@dataclass(frozen=True)
class _SeasonalDemand(DemandModel):
    """``synthetic_demand``'s seasonal model, with its parameters."""

    amplitude: float = 0.0
    period: float = 1.0


def synthetic_demand(profile: str, amplitude: float, period: float = 1.0) -> DemandModel:
    """Deterministic demand curves standing in for the historical data.

    * ``constant``: amplitude for every customer and item.
    * ``seasonal``: amplitude * (1 + sin(2 pi t / period)) / 2, scaled per
      customer by its importance (``theta`` reads it from ``CUSTOMERS``).
    * ``pulse``: amplitude on [period, 2 * period), zero elsewhere.
    """
    if profile not in DEMAND_PROFILES:
        raise ConfigError(f"unknown demand profile {profile!r}; pick from {DEMAND_PROFILES}")
    if not 0 <= amplitude < math.inf:  # NaN fails too
        raise ConfigError(f"demand amplitude must be nonnegative and finite, got {amplitude!r}")
    if not math.isfinite(period):
        raise ConfigError(f"demand period must be finite, got {period!r}")
    if profile in ("seasonal", "pulse") and not period > 0:
        raise ConfigError(f"{profile} demand needs a positive period")

    description = f"{profile}(amplitude={amplitude:g}, period={period:g})"
    if profile == "constant":

        def theta(t: float, customer: int, item: int) -> float:
            return amplitude

    elif profile == "seasonal":

        def theta(t: float, customer: int, item: int) -> float:
            w = _IMPORTANCE_BY_ID.get(customer)
            if w is None:
                raise ConfigError(f"unknown customer id {customer}")
            return w * amplitude * (1.0 + math.sin(2.0 * math.pi * t / period)) / 2.0

        return _SeasonalDemand(theta, description, amplitude, period)

    else:  # pulse

        def theta(t: float, customer: int, item: int) -> float:
            return amplitude if period <= t < 2.0 * period else 0.0

    return DemandModel(theta, description)


# ---------------------------------------------------------------------------
# Grocer's problem builder
# ---------------------------------------------------------------------------


def build_supply_chain(
    demand: DemandModel,
    horizon: float,
    intervals: int,
    fixed_cost_mode: str = "on-order",
    suppliers: Sequence[SupplierRecord] = SUPPLIERS,
    customers: Sequence[CustomerRecord] = CUSTOMERS,
    items: Sequence[ItemRecord] = ITEMS,
) -> ControlProblem:
    """Assemble the grocer's problem as a ControlProblem.

    State (n=20): per-item inventory X, then unmet demand Z laid out
    item-major (item outer, customer inner).  Control (m=29): one order rate
    per supplier row in table order, then delivery rates laid out
    customer-major (customer outer, item inner).  Both state blocks are
    floored at zero.

    The stage cost is the signed square J * |J| of the net cost rate J
    (revenue negative; ordering, carrying and unmet-demand penalties
    positive).  Fixed ordering costs are charged per item whenever its total
    order rate is positive (``on-order``) or unconditionally (``always``).

    Seasonal demand is scaled by the importance of the records in
    ``customers``.  Another model's ``theta`` must rate every (customer,
    item) at t = 0 without ``LookupError`` or ``ValueError``.
    """
    if fixed_cost_mode not in FIXED_COST_MODES:
        modes = " or ".join(map(repr, FIXED_COST_MODES))
        raise ConfigError(f"fixed_cost_mode must be {modes}")
    if not horizon > 0:
        raise ConfigError("horizon must be positive")
    _check_count("intervals", intervals, 1, ConfigError)
    dt = horizon / intervals
    if dt > 1.0:
        raise ConfigError(
            f"step size {dt:g} exceeds 1; the explicit Euler decay step would "
            "overshoot the zero floor (raise intervals or shrink the horizon)"
        )
    n_items = len(items)
    n_cust = len(customers)
    n_sup = len(suppliers)
    n = n_items + n_cust * n_items
    m = n_sup + n_cust * n_items
    for rec in suppliers:
        if not 0 <= rec.item_id < n_items:
            raise ConfigError(f"supplier {rec.supplier!r} references unknown item {rec.item_id}")

    agg = np.zeros((n_sup, n_items))
    for row, rec in enumerate(suppliers):
        agg[row, rec.item_id] = 1.0
    alpha_env = np.array([rec.unit_cost for rec in suppliers]) @ agg
    beta_env = np.array([rec.fixed_cost for rec in suppliers]) @ agg
    gamma_carry = np.array([it.inv_carry_cost for it in items])
    w = np.array([c.importance for c in customers])
    delta_pen = np.array([it.penalty for it in items])
    wbar = np.outer(w, delta_pen)
    wbar = wbar / wbar.sum()  # (customers, items)
    # (customer, item) of each market row: the Z block is item-major
    market_rows = [(c.customer_id, it.item_id) for it in items for c in customers]

    # The dynamics are affine in the control: f(t, x, u) = drift(t, x) + u @ B
    # with B constant.  B routes each order column into its item's inventory
    # row and each delivery column out of both its inventory row and its
    # market row.
    B = np.zeros((m, n))
    B[:n_sup, :n_items] = agg
    for c in range(n_cust):
        for j in range(n_items):
            col = n_sup + c * n_items + j
            B[col, j] = -1.0  # inventory drain
            B[col, n_items + j * n_cust + c] = -1.0  # unmet-demand drain

    if isinstance(demand, _SeasonalDemand):
        # importance times amplitude, the seasonal rate's first product:
        # the same bits, with one sine per drift call
        scale = [c.importance * demand.amplitude for _ in items for c in customers]

        def market_rates(t: float) -> List[float]:
            wave = 1.0 + math.sin(2.0 * math.pi * t / demand.period)
            return [w * wave / 2.0 for w in scale]

    else:
        for cid, iid in market_rows:
            try:
                demand.theta(0.0, cid, iid)
            except (LookupError, ValueError) as exc:
                raise ConfigError(f"demand model cannot rate customer id {cid}: {exc}") from exc

        def market_rates(t: float) -> List[float]:
            rates = [demand.theta(t, cid, iid) for cid, iid in market_rows]
            if not all(0.0 <= r < math.inf for r in rates):  # NaN fails too
                raise ConfigError(f"demand model produced a negative or non-finite rate at t={t}")
            return rates

    def state_drift(t: float, x: Array) -> Array:
        out = -np.asarray(x, dtype=float)
        out[n_items:] += market_rates(t)
        return out

    # The net cost rate is J = U @ rate + fixed + cost_state_gradient @ x.
    # An order column costs its item's unit-cost envelope, a delivery column
    # earns REVENUE_FACTOR times it (customer-major like the control layout).
    rate = np.concatenate([agg @ alpha_env, np.tile(-REVENUE_FACTOR * alpha_env, n_cust)])
    cost_state_gradient = np.concatenate([gamma_carry, wbar.T.ravel()])

    def net_cost_rate_batch(t: float, x: Array, U: Array) -> Array:
        U = np.asarray(U, dtype=float)
        if fixed_cost_mode == "on-order":
            # item totals of the transposed order block, a contiguous read of
            # the solver's column-major level block
            fixed = beta_env @ (agg.T @ U[:, :n_sup].T > 0.0)
        else:
            fixed = float(beta_env.sum())
        return U @ rate + (fixed + cost_state_gradient @ np.asarray(x, dtype=float))

    def running_cost_batch(t: float, x: Array, U: Array) -> Array:
        J = net_cost_rate_batch(t, x, U)
        return J * np.abs(J)

    def running_cost_state_gradient(t: float, x: Array, U: Array) -> Array:
        # d(J|J|)/dx = 2|J| dJ/dx, row by row
        return (2.0 * np.abs(net_cost_rate_batch(t, x, U)))[:, None] * cost_state_gradient

    minus_identity = _readonly(-np.eye(n))

    control_lower = np.zeros(m)
    control_upper = np.concatenate(
        [np.array([rec.max_qty for rec in suppliers]), np.full(n_cust * n_items, DELIVERY_RATE_MAX)]
    )
    gated = {row: (rec.min_qty, rec.max_qty) for row, rec in enumerate(suppliers)}
    x0 = np.concatenate([np.full(n_items, INITIAL_INVENTORY), np.zeros(n_cust * n_items)])

    return ControlProblem(
        state_dim=n,
        control_dim=m,
        horizon=horizon,
        initial_state=x0,
        control_lower=control_lower,
        control_upper=control_upper,
        state_lower=np.zeros(n),
        running_cost_batch=running_cost_batch,
        running_cost_state_gradient=running_cost_state_gradient,
        gated_dims=gated,
        drift=state_drift,
        control_matrix=B,
        drift_jacobian=lambda t, x: minus_identity,
        name="supply-chain",
    )


# ---------------------------------------------------------------------------
# Table fixtures
# ---------------------------------------------------------------------------

FIXTURE_FILES = {
    "items": "grocer_items.csv",
    "customers": "grocer_customers.csv",
    "suppliers": "grocer_suppliers.csv",
}


#: each fixture table's records, in file order
FIXTURE_RECORDS = {"items": ITEMS, "customers": CUSTOMERS, "suppliers": SUPPLIERS}


def render_csv(table: str) -> str:
    """The canonical CSV of fixture ``table``: a header of its records'
    field names, then one row per record, floats through ``format(v, "g")``."""
    records = FIXTURE_RECORDS[table]
    lines = [",".join(field.name for field in fields(records[0]))]
    for rec in records:
        lines.append(",".join(format(v, "g") if isinstance(v, float) else str(v) for v in astuple(rec)))
    return "\n".join(lines) + "\n"


def fixture_text(table: str) -> str:
    """Contents of the shipped CSV fixture for ``table``."""
    if table not in FIXTURE_FILES:
        raise KeyError(f"unknown table {table!r}")
    return (
        resources.files("chatterctl").joinpath("data", FIXTURE_FILES[table]).read_text("utf-8")
    )
