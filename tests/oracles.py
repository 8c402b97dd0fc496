"""Independent oracles the tests compare the solver against.

None of these run in the solver itself: closed forms, per-table envelopes,
a single-row reference step, a schedule's time average, the control of a
measure given by a weight on every level, a control-affine problem
stripped of its hooks, the full-width product grid and filter that the
level generator must reproduce bit for bit, the anchor-by-anchor range
search and the per-value separable sums that the control-affine search and
filter must reproduce bit for bit, a problem whose relaxed optimum
chatters, the feedback benchmark's replayed states, and a fingerprint of a
whole run.
"""

import dataclasses
import hashlib
import math

import numpy as np

from chatterctl import build_supply_chain, chattering, replay_measurement_source, synthetic_demand
from chatterctl.chattering import InfeasibleLevels
from chatterctl.model import ControlProblem, eval_drift
from chatterctl.problems import CUSTOMERS, ITEMS, N_ITEMS, SUPPLIERS


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


def without_hooks(problem):
    """The same problem without its control-affine hooks, so the solver takes
    the generic path (bisection level ranges, central-difference tangent);
    the batch dynamics stay vectorized."""
    drift, B = problem.drift, problem.control_matrix
    return dataclasses.replace(
        problem,
        drift=None,
        control_matrix=None,
        drift_jacobian=None,
        dynamics_batch=lambda t, x, U: drift(t, x) + U @ B,
    )


def reference_scalar_grid(problem, dim, lo, hi, count):
    """One control dimension's level values as ``np.unique`` of the
    candidates: zero when a gated dimension's range holds it, then the
    uniform grid of the (active) range on the slots left."""
    values = []
    gated = problem.gated_dims.get(dim) if problem.gated_dims else None
    if gated is not None:
        if lo <= 0.0 <= hi:
            values.append(0.0)
        lo, hi = max(gated[0], lo), min(gated[1], hi)
    if lo <= hi and count > len(values):
        values.extend(chattering._uniform_grid(lo, hi, count - len(values)))
    if not values:
        raise InfeasibleLevels(f"control dimension {dim} has no level")
    return np.unique(values)


def full_width_levels(problem, t, x, dt, grid_params):
    """The level generator's grid for a control-affine problem, and the
    dynamics rows that the factored sweep is checked against, built the
    long way: the whole lexicographic product
    (``np.meshgrid``) of the ``reference_scalar_grid`` values, kept where
    ``_in_box`` passes on every state coordinate of
    ``x + dt * (drift + levels @ B)``.  Returns the kept ``(levels, f)``
    and the keep mask over the whole product; raises ``InfeasibleLevels``
    when no row is kept."""
    m = problem.control_dim
    ranges = chattering.level_bound_search(problem, t, x, dt, range(m))
    counts = chattering._coarsen_counts(problem, grid_params.k_per_dim, grid_params.cap)
    grids = [
        reference_scalar_grid(problem, j, lo, hi, int(count))
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
        running_cost=lambda t, x, u: float(x[0] ** 2 + (u[0] ** 2 - 1.0) ** 2),
        dynamics=lambda t, x, u: np.array([u[0]]),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
        hamiltonian_x_gradient=lambda t, x, p, u: np.array([2.0 * x[0]]),
        running_cost_batch=lambda t, x, U: x[0] ** 2 + (U[:, 0] ** 2 - 1.0) ** 2,
        drift=lambda t, x: np.zeros(1),
        control_matrix=np.ones((1, 1)),
        drift_jacobian=lambda t, x: np.zeros((1, 1)),
        name="bolza",
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
