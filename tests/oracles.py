"""Independent oracles the tests compare the solver against.

None of these run in the solver itself: closed forms, per-table envelopes,
the grocer's net cost rate and drift in their table form, the grocer's
least Hamiltonian over its gated control box, a single-row
reference step, a schedule's time average, the control of a
measure given by a weight on every level, the factored ``p . f`` sweep of a
control-affine problem, the dynamics hooks of linear dynamics, the shooting
tangent by central differences of the dynamics, the full-width product
grid and filter that the level generator must reproduce bit for bit, the
anchor-by-anchor range search and the per-value separable sums that the
closed-form search and filter must reproduce bit for bit, a problem whose
relaxed optimum chatters (with and without an exact pricing hook), the
optimum of the discretized regulator, two coupled tanks and the optimum of
their discretization, the feedback benchmark's replayed states, and a
fingerprint of a whole run.  One helper is no oracle: ``level_ranges``
reaches the solver's range search the way the level generator does.
"""

import dataclasses
import hashlib
import itertools
import math

import numpy as np

from chatterctl import build_lqr, build_supply_chain, chattering, replay_measurement_source, synthetic_demand
from chatterctl.chattering import InfeasibleLevels
from chatterctl.model import ControlProblem, eval_drift, eval_dynamics_batch
from chatterctl.problems import CUSTOMERS, ITEMS, LQR_HORIZON, LQR_X0, N_ITEMS, SUPPLIERS


def lqr_discrete_optimum(intervals: int, terminal_weight: float = 0.0) -> float:
    """Least cost of the regulator as the solver discretizes it on a uniform
    partition: explicit Euler ``x' = (1 + dt) x + dt u`` and the
    left-endpoint sum of ``dt (x^2 + u^2)``, plus the terminal cost
    ``terminal_weight x_N^2``, by the scalar Riccati recursion
    ``P_i = dt + a^2 P' - (a b P')^2 / (dt + b^2 P')`` from ``P_N =
    terminal_weight`` (a = 1 + dt, b = dt, P' = P_{i+1}); the cost is ``P_0
    x0^2``.  The optimal controls lie inside the control bounds, so they do
    not bind."""
    dt = LQR_HORIZON / intervals
    a, b, P = 1.0 + dt, dt, terminal_weight
    for _ in range(intervals):
        P = dt + a * a * P - (a * b * P) ** 2 / (dt + b * b * P)
    return P * LQR_X0**2


def lqr_hamiltonian_flow(t: float) -> np.ndarray:
    """State-transition matrix exp(A t) of the optimality system
    A = [[1, -1/2], [-2, -1]], via its eigendecomposition."""
    s = math.sqrt(2.0)
    V = np.array([[1.0, 1.0], [2.0 * (1.0 - s), 2.0 * (1.0 + s)]])
    D = np.diag([math.exp(s * t), math.exp(-s * t)])
    return V @ D @ np.linalg.inv(V)


def item_unit_cost_envelope() -> np.ndarray:
    """Per-item sum of supplier unit costs."""
    alpha = np.zeros(N_ITEMS)
    for rec in SUPPLIERS:
        alpha[rec.item_id] += rec.unit_cost
    return alpha


def item_fixed_cost_envelope() -> np.ndarray:
    """Per-item sum of supplier fixed costs."""
    beta = np.zeros(N_ITEMS)
    for rec in SUPPLIERS:
        beta[rec.item_id] += rec.fixed_cost
    return beta


def unmet_demand_weights() -> np.ndarray:
    """Normalized penalty weights, shape (customers, items):
    w_i * delta_j / sum_ij w_i * delta_j."""
    w = np.array([c.importance for c in CUSTOMERS])
    delta = np.array([it.penalty for it in ITEMS])
    table = np.outer(w, delta)
    return table / table.sum()


def reference_net_cost_rate(U, x, fixed_cost_mode="on-order", suppliers=SUPPLIERS,
                            customers=CUSTOMERS, items=ITEMS):
    """The grocer's net cost rate J at every row of ``U`` in its table form:
    the item totals ``mu = U[:, :S] @ agg`` of the S order columns, the
    ordering cost ``mu @ alpha``, the revenue ``U[:, S:] @ tile(2 alpha)``
    over the customer-major delivery columns, the fixed cost ``(mu > 0) @
    beta`` (every item's with ``always``) and the holding cost ``gamma @ X +
    sum(wbar * Z)`` with Z read as a (customers, items) table.  Returns J,
    the fixed-cost indicator ``mu > 0`` and the sum of the absolute values
    of J's terms, which scales its rounding error."""
    U, x = np.asarray(U, dtype=float), np.asarray(x, dtype=float)
    S, n_items, n_cust = len(suppliers), len(items), len(customers)
    agg = np.zeros((S, n_items))
    for row, rec in enumerate(suppliers):
        agg[row, rec.item_id] = 1.0
    alpha = np.array([rec.unit_cost for rec in suppliers]) @ agg
    beta = np.array([rec.fixed_cost for rec in suppliers]) @ agg
    gamma = np.array([it.inv_carry_cost for it in items])
    wbar = np.outer([c.importance for c in customers], [it.penalty for it in items])
    wbar = wbar / wbar.sum()
    X, Z = x[:n_items], x[n_items:].reshape(n_items, n_cust).T
    mu = U[:, :S] @ agg
    revenue_rate = np.tile(2.0 * alpha, n_cust)
    on = mu > 0.0
    fixed = on @ beta if fixed_cost_mode == "on-order" else np.full(len(U), beta.sum())
    holding = gamma @ X + (wbar * Z).sum()
    J = -(U[:, S:] @ revenue_rate) + mu @ alpha + fixed + holding
    magnitude = (np.abs(U[:, S:]) @ revenue_rate + np.abs(U[:, :S]) @ (agg @ alpha) + fixed
                 + gamma @ np.abs(X) + (wbar * np.abs(Z)).sum())
    return J, on, magnitude


def reference_drift(demand, t, x, customers=CUSTOMERS, items=ITEMS):
    """The grocer's control-free dynamics from a (customers, items) table of
    demand rates: ``-x``, plus the table laid out item-major (item outer,
    customer inner) on the market rows."""
    table = np.array([[demand.theta(t, c.customer_id, it.item_id) for it in items]
                      for c in customers])
    x = np.asarray(x, dtype=float)
    return np.concatenate([-x[:len(items)], -x[len(items):] + table.T.ravel()])


def grocer_hamiltonian_min(problem, t, x, p, lo, hi, suppliers=SUPPLIERS, customers=CUSTOMERS,
                           items=ITEMS):
    """The least Hamiltonian of the grocer built from ``suppliers``,
    ``customers`` and ``items`` (fixed costs ``on-order``) at (t, x, p) over
    the controls in ``[lo, hi]`` whose order columns are 0 or lie in their
    supplier's ``[min_qty, max_qty]``, and a control that attains it:
    ``(h_min, u)``.  No joint one-step state test is applied, so ``h_min``
    bounds the level grid's least Hamiltonian from below.

    ``H = J|J| + q.u + p.drift`` with ``q = B p``, and the net cost rate ``J``
    is ``c(x) + alpha.mu + beta.[mu > 0]`` less the revenue: H depends on
    the orders only through the item totals ``mu``, each of which ranges
    over the merged sums of its suppliers' admissible ranges.  Every choice
    of one such range per item fixes the fixed cost, and over the box it
    leaves ``min J|J| + q.y`` is a parametric fractional knapsack (Dantzig,
    Oper. Res. 5, 1957): with the columns sorted by ``q_k / a_k``, the
    least ``q.y`` at ``a.y = s`` is convex and piecewise linear in s, and on
    each of its pieces (slope r) ``J|J| + r s`` is least at an end or at
    ``J = -r/2``.  Each item total is split back over its suppliers."""
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    S, n_items, n_cust = len(suppliers), len(items), len(customers)
    alpha, beta = np.zeros(n_items), np.zeros(n_items)
    for rec in suppliers:
        alpha[rec.item_id] += rec.unit_cost
        beta[rec.item_id] += rec.fixed_cost
    holding = float(reference_net_cost_rate(np.zeros((1, lo.size)), x, "on-order", suppliers,
                                            customers, items)[0][0])
    # the delivery columns, customer-major: J loses 2 alpha per unit, and
    # each drains its item's inventory and its (item, customer) market row
    p_market = p[n_items:].reshape(n_items, n_cust).T
    a_v = np.tile(-2.0 * alpha, n_cust)
    q_v = -(p[:n_items] + p_market).ravel()
    # per item: the off option (None) where every supplier can order
    # nothing, then its merged on ranges, each with the supplier ranges
    # whose sums it covers
    rows = [[s for s, rec in enumerate(suppliers) if rec.item_id == item] for item in range(n_items)]
    options = []
    for item in range(n_items):
        pieces = []
        for s in rows[item]:
            own = [(0.0, 0.0)] if lo[s] <= 0.0 <= hi[s] else []
            a, b = max(suppliers[s].min_qty, lo[s]), min(suppliers[s].max_qty, hi[s])
            pieces.append(own + ([(a, b)] if a <= b else []))
        merged, off = [], False
        for combo in sorted(itertools.product(*pieces), key=lambda c: sum(a for a, _ in c)):
            a, b = sum(a for a, _ in combo), sum(b for _, b in combo)
            if b == 0.0:
                off = True
            elif merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
                merged[-1][2].append(combo)
            else:
                merged.append([a, b, [combo]])
        options.append(([None] if off else []) + merged)
    # an order column's q is its item's inventory costate
    best = (math.inf, None, None, None)
    for choice in itertools.product(*options):
        on = [i for i, opt in enumerate(choice) if opt is not None]
        a = np.concatenate([alpha[on], a_v])
        q = np.concatenate([p[on], q_v])
        low = np.concatenate([[choice[i][0] for i in on], lo[S:]])
        high = np.concatenate([[choice[i][1] for i in on], hi[S:]])
        value, y = _least_signed_square(holding + beta[on].sum(), a, q, low, high)
        if value < best[0]:
            best = (value, choice, on, y)
    value, choice, on, y = best
    u = np.zeros(lo.size)
    u[S:] = y[len(on):]
    for mu, item in zip(y.tolist(), on):
        # the supplier ranges nearest mu, filled in table order from their
        # lower ends
        combo = min(choice[item][2], key=lambda c: max(sum(a for a, _ in c) - mu,
                                                       mu - sum(b for _, b in c)))
        rest = mu - sum(a for a, _ in combo)
        for s, (a, b) in zip(rows[item], combo):
            u[s] = min(a + max(rest, 0.0), b)
            rest -= u[s] - a
    return value + float(p @ eval_drift(problem, t, x)), u


def _least_signed_square(fixed, a, q, low, high):
    """``min J|J| + q.y`` over the box ``[low, high]`` with ``J = fixed +
    a.y`` (no ``a_k`` zero), and its minimizer.  In ``d_k = a_k (y_k -
    low_k)`` the box spans ``[min(0, w_k), max(0, w_k)]`` with ``w_k = a_k
    (high_k - low_k)`` and ``q.y`` adds ``(q_k / a_k) d_k``: J rises from its
    least value through the pieces in the order of ``q_k / a_k``."""
    ratio, span = q / a, a * (high - low)
    order = np.argsort(ratio, kind="stable")
    width, slope = np.abs(span)[order], ratio[order]
    d_start = np.minimum(span, 0.0)
    starts = fixed + a @ low + d_start.sum() + np.concatenate([[0.0], np.cumsum(width)])
    base = q @ low + ratio @ d_start + np.concatenate([[0.0], np.cumsum(slope * width)])
    # candidates on each piece: its two ends and J = -r/2 cut to the piece
    ends = starts[1:]
    J = np.stack([starts[:-1], ends, np.clip(-slope / 2.0, starts[:-1], ends)])
    values = J * np.abs(J) + base[:-1] + slope * (J - starts[:-1])
    k = np.unravel_index(np.argmin(values), values.shape)
    target = J[k]
    # fill the pieces in order up to J = target
    taken = np.clip(target - starts[:-1], 0.0, width)
    d = d_start.copy()
    d[order] += taken
    return float(values[k]), np.clip(low + d / a, low, high)


def market_step_oracle(Z: float, theta: float, v: float, dt: float) -> float:
    """Single-row explicit Euler step of the market conservation dynamics:
    Z + dt * (-Z + theta - v)."""
    return Z + dt * (-Z + theta - v)


def schedule_time_average(starts, ends, levels) -> np.ndarray:
    """Time average of the control that a one-interval schedule realizes:
    segment r holds ``levels[r]`` from ``starts[r]`` to ``ends[r]``."""
    total = ends[-1] - starts[0]
    acc = np.zeros(levels.shape[1])
    for s, e, level in zip(starts, ends, levels):
        acc += (e - s) * level
    return acc / total


def dense_control(levels, weights):
    """The control that a measure with ``weights`` over every row of
    ``levels`` (a weight per level, zeros included) realizes in time
    average: the convex combination ``sum_k a_k c_k``.  The solver keeps
    only the support; this is the dense form it is checked against."""
    return np.asarray(weights, dtype=float) @ np.asarray(levels, dtype=float)


def affine_p_dot_f(problem, drift, p, controls):
    """``p . f(t, x, c)`` at every row of ``controls`` for control-affine
    dynamics whose drift at (t, x) is ``drift``, in the factored form that
    ``propagate_forward`` sweeps: ``controls @ (B @ p) + drift @ p``, one
    (K,) matvec and no (K, n) dynamics block.  Equals
    ``eval_dynamics_batch(...) @ p`` up to rounding."""
    return controls @ (problem.control_matrix @ p) + drift @ p


def linear_dynamics(B, c=0.0, a=0.0):
    """The three dynamics hooks, as ``ControlProblem`` keywords, of
    ``f(t, x, u) = c + a x + u @ B`` for an ``(m, n)`` matrix ``B``, a
    constant drift ``c`` (a scalar or ``(n,)``) and a scalar rate ``a``."""
    B = np.asarray(B, dtype=float)
    n = B.shape[1]
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    return dict(
        drift=lambda t, x: c + a * x,
        control_matrix=B,
        drift_jacobian=lambda t, x: a * np.eye(n),
    )


def central_difference_tangent(problem, partition, nominal):
    """``P_p`` of the shooting tangent along ``nominal`` with ``F_x`` taken
    as a central difference (step ``1e-6 max(1, |x_j|)``) of the
    measure-weighted dynamics ``sum_k a_k f(t_i, x, c_k)`` at each
    interval's recorded support, instead of the ``drift_jacobian`` hook."""
    n = problem.state_dim
    dp = np.eye(n)
    off = nominal.offsets
    for i, (t, dt) in enumerate(zip(nominal.times[:-1], partition.deltas)):
        levels = nominal.support_levels[off[i]:off[i + 1]]
        weights = nominal.support_weights[off[i]:off[i + 1]]
        F_xT = np.empty((n, n))  # row j: d/dx_j of the weighted dynamics
        for j in range(n):
            h = 1e-6 * max(1.0, abs(nominal.x[i, j]))
            xp, xm = nominal.x[i].copy(), nominal.x[i].copy()
            xp[j] += h
            xm[j] -= h
            fp = weights @ eval_dynamics_batch(problem, float(t), xp, levels)
            fm = weights @ eval_dynamics_batch(problem, float(t), xm, levels)
            F_xT[j] = (fp - fm) / (xp[j] - xm[j])
        dp = dp - dt * (F_xT @ dp)
    return dp


def reference_uniform_grid(lo, hi, count):
    """``count`` evenly spaced values from ``lo`` to ``hi``: np.linspace's
    ``k * step + lo`` with the endpoint pinned to ``hi``, written out so
    that a step which underflows to zero keeps the formula (np.linspace
    then scales ``k / (count - 1)`` instead).  A range of one point or of
    zero width holds ``lo``, and one of two points its ends."""
    if count == 1 or lo == hi:
        return [lo]
    if count == 2:
        return [lo, hi]
    grid = np.arange(count) * ((hi - lo) / (count - 1)) + lo
    grid[-1] = hi
    return grid.tolist()


def reference_scalar_grid(gated, dim, lo, hi, count):
    """One control dimension's level values, with active range ``gated`` on
    a gated dimension (None otherwise): the candidates are zero when a
    gated dimension's range holds it, then the uniform grid of the (active)
    range on the slots left; they come back sorted, each value kept once
    (the first of equal values in a stable sort, so a zero candidate beats
    a -0.0 of the active grid)."""
    values = []
    if gated is not None:
        if lo <= 0.0 <= hi:
            values.append(0.0)
        lo, hi = max(gated[0], lo), min(gated[1], hi)
    if lo <= hi and count > len(values):
        values.extend(reference_uniform_grid(lo, hi, count - len(values)))
    if not values:
        raise InfeasibleLevels(f"control dimension {dim} has no level")
    ordered = np.sort(np.array(values), kind="stable")
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def level_ranges(problem, t, x, dt):
    """The level ranges that the level generator searches at (t, x) for a
    step ``dt``, reached the way it reaches them: ``_search_ranges`` with a
    ``LevelCache``'s search terms and the drift at (t, x).  Returns the
    lower and the upper ends of every control dimension, the control bounds
    for a problem without state bounds; raises ``InfeasibleLevels`` as the
    search does."""
    if not problem.has_state_bounds:
        return problem.control_lower.copy(), problem.control_upper.copy()
    x = np.asarray(x, dtype=float)
    terms = chattering.LevelCache(problem, chattering.GridParams()).terms
    return chattering._search_ranges(problem, t, x, dt, eval_drift(problem, t, x), terms)


def full_width_levels(problem, t, x, dt, grid_params, ranges=None):
    """The level generator's grid, and the dynamics rows that the factored
    sweep is checked against, built the long way: the whole lexicographic
    product (``np.meshgrid``) of the ``reference_scalar_grid`` values over
    ``ranges`` (one ``(lo, hi)`` per control dimension; the searched
    ``level_ranges`` by default), kept where ``_in_box`` passes on every
    state coordinate of ``x + dt * (drift + levels @ B)``.  Returns the
    kept ``(levels, f)`` and the keep mask over the whole product; raises
    ``InfeasibleLevels`` when no row is kept."""
    if ranges is None:
        lo, hi = level_ranges(problem, t, x, dt)
        ranges = list(zip(lo.tolist(), hi.tolist()))
    counts = chattering._coarsen_counts(problem, grid_params.k_per_dim, grid_params.cap)
    grids = [
        reference_scalar_grid(problem.gated_dims.get(j), j, lo, hi, int(count))
        for j, ((lo, hi), count) in enumerate(zip(ranges, counts))
    ]
    levels = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=1)
    f = eval_drift(problem, t, x) + levels @ problem.control_matrix
    keep = chattering._in_box(problem, x + dt * f)
    if not keep.any():
        raise InfeasibleLevels("no product level satisfies the one-step state bounds")
    return levels[keep], f[keep], keep


def reference_affine_ranges(problem, t, x, dt, dims, drift):
    """The level range search of a control-affine problem with state
    bounds, anchor by anchor: at the midpoint, the lower and the upper
    corner of the control box in turn, the dimensions not yet found probe
    their lower end, upper end and (when both fail) midpoint from one
    ``base = x + dt * (drift + anchor @ B)``; each infeasible end is then
    the last point of the bisection's grid that stays within the distance
    at which the first state bound binds, from the first feasible probe.
    Returns the lower and upper ends of every control dimension (its
    control bounds where it is not in ``dims``) and the anchor at which
    each dimension was found (0 midpoint, 1 lower, 2 upper; -1 where not
    searched); raises ``InfeasibleLevels`` as ``_search_ranges`` does."""
    lower, upper = problem.control_lower, problem.control_upper
    B = problem.control_matrix
    tol = chattering.STEP_FEASIBILITY_TOL
    iterations = chattering.BOUND_SEARCH_ITERATIONS
    lo_out, hi_out = np.array(lower), np.array(upper)
    found_at = np.full(problem.control_dim, -1)
    pending = np.asarray(dims, dtype=np.intp)

    def closed_form_ends(x_start, cols, a, b):
        sign = np.sign(b - a)
        rate = sign[:, None] * (dt * B[cols])
        reach = np.full(rate.shape, np.inf)
        if problem.state_lower is not None:
            slack = x_start - (problem.state_lower - tol)
            falling = rate < 0.0
            reach[falling] = slack[falling] / -rate[falling]
        if problem.state_upper is not None:
            slack = (problem.state_upper + tol) - x_start
            rising = rate > 0.0
            reach[rising] = np.minimum(reach[rising], slack[rising] / rate[rising])
        bracket = np.abs(b - a) * 2.0**-iterations
        steps = np.minimum(np.floor(reach.min(axis=1) / bracket), 2.0**iterations - 1)
        return a + sign * (steps * bracket)

    for index, anchor in enumerate((0.5 * (lower + upper), lower, upper)):
        if pending.size == 0:
            break
        base = x + dt * (drift + anchor @ B)

        def next_states(cols, v):
            return base + dt * ((v - anchor[cols])[:, None] * B[cols])

        lo, hi, mid = lower[pending], upper[pending], 0.5 * (lower[pending] + upper[pending])
        ends = next_states(np.repeat(pending, 2), np.stack([lo, hi], axis=1).ravel())
        ends_ok = chattering._in_box(problem, ends).reshape(-1, 2)
        lo_ok, hi_ok = ends_ok[:, 0], ends_ok[:, 1]
        found = lo_ok | hi_ok
        x_start = np.where(lo_ok[:, None], ends[0::2], ends[1::2])
        both_bad = ~found
        if np.any(both_bad):
            mids = next_states(pending[both_bad], mid[both_bad])
            found[both_bad] = chattering._in_box(problem, mids)
            x_start[both_bad] = mids
        search = np.stack([found & ~lo_ok, found & ~hi_ok], axis=1)
        which, side = np.nonzero(search)
        if which.size:
            cols = pending[which]
            a = np.where(lo_ok, lo, np.where(hi_ok, hi, mid))[which]
            b = np.where(side == 0, lo[which], hi[which])
            a = closed_form_ends(x_start[which], cols, a, b)
            lo_out[cols[side == 0]] = a[side == 0]
            hi_out[cols[side == 1]] = a[side == 1]
        found_at[pending[found]] = index
        pending = pending[~found]
    if pending.size:
        raise InfeasibleLevels(
            f"no admissible control level found for dimension(s) {pending.tolist()} "
            f"at t={t}: state bounds and step size are incompatible here"
        )
    return lo_out, hi_out, found_at


def reference_separable_sums(values, sizes, B):
    """The separable bound's ``low``, ``high`` and ``largest`` over every
    value of every scalar grid (concatenated in ``values``, ``sizes`` values
    each): ``v * B[j, i]`` for each value, reduced per grid by
    ``np.minimum/maximum.reduceat`` and summed over the grids."""
    starts = np.cumsum((0,) + tuple(sizes[:-1]))
    terms = values[:, None] * B[np.repeat(np.arange(len(sizes)), sizes)]
    return (
        np.minimum.reduceat(terms, starts).sum(axis=0),
        np.maximum.reduceat(terms, starts).sum(axis=0),
        np.maximum.reduceat(np.abs(terms), starts).sum(axis=0),
    )


def bolza_problem(x0: float = 0.0) -> ControlProblem:
    """The Bolza-Young example on [0, 1]: minimize the integral of
    x^2 + (u^2 - 1)^2 with x' = u, |u| <= 1, x(0) = x0, no terminal cost,
    with the control-affine hooks.  At x = 0 no ordinary control is
    optimal; the relaxed optimum spends half of every interval at u = -1 and
    half at u = 1 and costs 0 (L. C. Young, *Lectures on the Calculus of
    Variations and Optimal Control Theory*, 1969)."""
    return ControlProblem(
        state_dim=1,
        control_dim=1,
        horizon=1.0,
        initial_state=np.array([x0]),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
        running_cost_batch=lambda t, x, U: x[0] ** 2 + (U[:, 0] ** 2 - 1.0) ** 2,
        running_cost_state_gradient=lambda t, x, U: np.full((len(U), 1), 2.0 * x[0]),
        drift=lambda t, x: np.zeros(1),
        control_matrix=np.ones((1, 1)),
        drift_jacobian=lambda t, x: np.zeros((1, 1)),
        name="bolza",
    )


def priced_bolza_problem(x0: float = 0.0) -> ControlProblem:
    """``bolza_problem(x0)`` with an exact ``hamiltonian_argmin``.  Over u,
    H = (u^2 - 1)^2 + p u + x^2 is least at a real root of its derivative
    ``4u^3 - 4u + p`` inside ``[lo, hi]`` or at an end of the range; the
    ends come first, so a tie goes to an end."""

    def argmin(t, x, p, lo, hi):
        roots = np.roots([4.0, 0.0, -4.0, p[0]])
        real = roots.real[np.abs(roots.imag) <= 1e-12]
        candidates = np.concatenate([lo, hi, real[(real >= lo[0]) & (real <= hi[0])]])
        h = (candidates**2 - 1.0) ** 2 + p[0] * candidates
        return candidates[[np.argmin(h)], None]

    return dataclasses.replace(bolza_problem(x0), hamiltonian_argmin=argmin)


def cubic_drift_problem() -> ControlProblem:
    """x' = -x - x^3 / 2 + u from x(0) = 1 on [0, 1], cost x^2 + u^2, u in
    [-5, 5], priced by ``clip(-p/2)``: a drift Jacobian ``-1 - 3 x^2 / 2``
    that depends on x, so that dH/dx carries ``d(F_x^T p)/dx = -3 x p`` into
    the tangent's curvature.  Its pricing hook is the regulator's."""
    return ControlProblem(
        state_dim=1,
        control_dim=1,
        horizon=1.0,
        initial_state=np.array([1.0]),
        control_lower=np.array([-5.0]),
        control_upper=np.array([5.0]),
        running_cost_batch=lambda t, x, U: x[0] ** 2 + U[:, 0] ** 2,
        running_cost_state_gradient=lambda t, x, U: np.full((len(U), 1), 2.0 * x[0]),
        drift=lambda t, x: -x - 0.5 * x**3,
        control_matrix=np.ones((1, 1)),
        drift_jacobian=lambda t, x: np.array([[-1.0 - 1.5 * x[0] ** 2]]),
        hamiltonian_argmin=build_lqr().hamiltonian_argmin,
        name="cubic-drift",
    )


def feedback_replay(seed):
    """The desk problem, a replay table of every second interval and p0 as
    the feedback benchmark draws them for ``seed``."""
    problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
    rng = np.random.default_rng(seed)
    scale = np.concatenate([np.full(5, 1e5), np.full(15, 1e2)])
    p0 = scale * rng.uniform(0.5, 2.0, 20)
    table = {
        i: np.concatenate([rng.uniform(0.0, 10.0, 5), rng.uniform(0.0, 1.0, 15)])
        for i in range(2, 200, 2)
    }
    return problem, p0, replay_measurement_source(table)


def fingerprint(trajectory) -> str:
    """SHA-256 over the bytes of a trajectory's states, costates, controls,
    and every interval's support levels and weights: equal fingerprints mean
    bit-identical runs."""
    digest = hashlib.sha256()
    parts = [trajectory.states(), trajectory.costates(), trajectory.controls()]
    off = trajectory.offsets.tolist()
    for a, b in zip(off, off[1:]):
        parts += [trajectory.support_levels[a:b], trajectory.support_weights[a:b]]
    for part in parts:
        part = np.ascontiguousarray(part, dtype=float)
        digest.update(repr(part.shape).encode())
        digest.update(part.tobytes())
    return digest.hexdigest()


#: the two tanks: u0 fills tank 0, and u1 moves water from tank 0 to tank 1
TANKS_B = np.array([[1.0, 0.0], [-1.0, 1.0]])
TANKS_X0 = np.array([0.2, 0.0])
TANKS_TARGET = np.array([1.0, 0.5])
TANKS_DRAIN = 0.5
TANKS_CONTROL_WEIGHT = 0.1
TANKS_STATE_UPPER = 1.2


def tanks_problem(priced: bool) -> ControlProblem:
    """Two coupled tanks on [0, 1]: ``x' = -0.5 x + u @ [[1, 0], [-1, 1]]``
    with u in [0, 1]^2, state box [0, 1.2]^2, x(0) = (0.2, 0), running cost
    ``0.1 |u|^2`` (no state dependence) and terminal cost ``|x_T - (1,
    0.5)|^2``.  Priced, it carries the exact minimizer of H over the box,
    ``clip(-B p / 0.2, lo, hi)``: H is separable and convex in u."""

    def argmin(t, x, p, lo, hi):
        return np.clip(-(TANKS_B @ p) / (2.0 * TANKS_CONTROL_WEIGHT), lo, hi)[None, :]

    return ControlProblem(
        state_dim=2,
        control_dim=2,
        horizon=1.0,
        initial_state=TANKS_X0,
        control_lower=np.zeros(2),
        control_upper=np.ones(2),
        state_lower=np.zeros(2),
        state_upper=np.full(2, TANKS_STATE_UPPER),
        running_cost_batch=lambda t, x, U: TANKS_CONTROL_WEIGHT * np.einsum("kj,kj->k", U, U),
        running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), 2)),
        **linear_dynamics(TANKS_B, a=-TANKS_DRAIN),
        terminal_cost=lambda x: float((x - TANKS_TARGET) @ (x - TANKS_TARGET)),
        terminal_gradient=lambda x: 2.0 * (x - TANKS_TARGET),
        terminal_hessian=lambda x: 2.0 * np.eye(2),
        hamiltonian_argmin=argmin if priced else None,
        name="two-tanks",
    )


def tanks_discrete_optimum(intervals: int) -> float:
    """Least cost of the tanks as the solver discretizes them on a uniform
    partition: the left-endpoint sum of ``dt 0.1 |u_k|^2`` plus ``|x_N -
    target|^2``, with ``x_{k+1} = a x_k + dt u_k @ B`` and ``a = 1 - 0.5
    dt``.  ``x_N = c + u @ M`` is affine in the ``2 intervals`` controls
    ``u``, so this is a strongly convex QP over the box [0, 1], solved by
    FISTA with a projection onto the box (Beck and Teboulle, SIAM J.
    Imaging Sci. 2, 2009) until a step moves no control by more than
    1e-13.  The QP leaves out the state box; the rollout of its optimum is
    asserted to stay inside it, so it is also the optimum of the
    state-bounded problem."""
    dt = 1.0 / intervals
    a = 1.0 - TANKS_DRAIN * dt
    powers = a ** np.arange(intervals - 1, -1, -1.0)  # a^(N-1-k) for control k
    M = (dt * powers[:, None, None] * TANKS_B).reshape(2 * intervals, 2)
    c = a**intervals * TANKS_X0
    weight = dt * TANKS_CONTROL_WEIGHT

    def cost(u):
        miss = c + u @ M - TANKS_TARGET
        return weight * float(u @ u) + float(miss @ miss)

    def gradient(u):
        return 2.0 * weight * u + 2.0 * M @ (c + u @ M - TANKS_TARGET)

    step = 1.0 / (2.0 * weight + 2.0 * np.linalg.norm(M, 2) ** 2)
    u = y = np.zeros(2 * intervals)
    momentum = 1.0
    for _ in range(100_000):
        u_next = np.clip(y - step * gradient(y), 0.0, 1.0)
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        y = u_next + (momentum - 1.0) / momentum_next * (u_next - u)
        done = np.max(np.abs(u_next - u)) <= 1e-13
        u, momentum = u_next, momentum_next
        if done:
            break
    else:
        raise AssertionError("FISTA did not settle")
    x = TANKS_X0.copy()
    for row in u.reshape(intervals, 2):
        x = x + dt * (-TANKS_DRAIN * x + row @ TANKS_B)
        assert np.all(x >= 0.0) and np.all(x <= TANKS_STATE_UPPER), "the optimum leaves the state box"
    return cost(u)
