"""Chattering level grids, the per-interval measure LP, and the duty-cycle
schedule.

On each time interval the control set is discretized into a finite set of
*levels* (constant control vectors).  A *chattering measure* assigns each
level a time share on the interval; rapidly switching between levels with
those duty cycles emulates, in time average, any control in the levels'
convex hull.  Minimizing the interval Hamiltonian over measures is a linear
program on the probability simplex whose optimum is analytic: put all weight
on the level(s) with the smallest Hamiltonian value.

Everything here is a pure function of its inputs; grids and measures are
immutable once built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .model import (
    Array,
    ControlProblem,
    eval_drift,
    eval_dynamics_batch,
)

#: all ties within this absolute distance of the minimum share weight
TIE_TOL = 1e-9
#: a level is admissible if one explicit Euler step stays inside the state
#: box within this absolute slack
STEP_FEASIBILITY_TOL = 1e-9
#: bisection iterations for the per-dimension level bound search
BOUND_SEARCH_ITERATIONS = 32


class InfeasibleLevels(RuntimeError):
    """No control level keeps the one-step state prediction inside the state
    box; the state bounds and step size are incompatible at this state."""


class EmptyGrid(ValueError):
    """The measure LP was handed zero levels."""


class DimensionMismatch(ValueError):
    """Levels, weights or dynamics rows disagree in number."""


#: per-interval level work kept across the propagations of one solve:
#: ``(t, dt) -> (x bytes, concatenated scalar grids, their sizes, keep mask
#: or None when every level is kept)``; never levels or dynamics rows, whose
#: size would grow the peak memory by megabytes
LevelMemo = Dict[Tuple[float, float], Tuple[bytes, Array, Tuple[int, ...], Optional[np.ndarray]]]


@dataclass(frozen=True)
class GridParams:
    """Level generation knobs: requested points per control dimension and the
    hard cap on the total level count."""

    k_per_dim: int = 101
    cap: int = 4096

    def __post_init__(self):
        if self.k_per_dim < 2:
            raise ValueError("k_per_dim must be >= 2")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


@dataclass(frozen=True)
class LevelGrid:
    """The ordered control levels for one interval, as a (K, m) array.

    Rows are distinct and sorted lexicographically; within each control
    dimension the distinct scalar values form an ascending grid.  A read-only
    float64 array that owns its data is shared, not copied (the level
    generator hands over such arrays); anything else is copied.  Passing
    such an array hands it over: numpy lets its owner turn writing back on,
    and a write through it then changes ``levels``.
    """

    levels: Array

    def __post_init__(self):
        levels = self.levels
        owned = isinstance(levels, np.ndarray) and levels.flags.owndata
        if not (owned and levels.dtype == np.float64 and not levels.flags.writeable):
            levels = np.array(levels, dtype=float)
        if levels.ndim != 2 or levels.shape[0] < 1:
            raise ValueError("levels must be a non-empty (K, m) array")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    @property
    def K(self) -> int:
        return int(self.levels.shape[0])


@dataclass(frozen=True)
class ChatteringMeasure:
    """Simplex weights over the levels of one interval: each weight is the
    fraction of the interval spent at that level."""

    weights: Array

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def solve_measure_lp(h_values: Array) -> Tuple[Array, Array]:
    """Analytic minimizer of sum_k h_k * a_k over the probability simplex.

    The optimum of a linear objective over the simplex sits at a vertex, so
    the solution is a point mass on the argmin; all levels within ``TIE_TOL``
    of the minimum share the weight uniformly, which is what produces genuine
    chattering mixtures on symmetric problems and keeps the result
    deterministic.

    Returns the optimum in sparse form: the ascending indices of the tied
    levels (the measure's support) and their weights; every other level
    has weight 0.
    """
    h = np.asarray(h_values, dtype=float)
    if h.ndim != 1:
        raise ValueError("h_values must be 1-d")
    if h.size == 0:
        raise EmptyGrid("cannot solve the measure LP over zero levels")
    if not np.isfinite(h).all():
        raise ValueError("h_values must be finite")
    tied = np.flatnonzero(h <= float(h.min()) + TIE_TOL)
    return tied, np.full(tied.size, 1.0 / tied.size)


def schedule_segments(times: Array, offsets: Array, weights: Array) -> Tuple[Array, ...]:
    """Start, end, interval and rank within the support of the duty-cycle
    segment of every support row of a run in CSR form: interval i spans
    ``times[i:i + 2]`` with weights ``weights[offsets[i]:offsets[i + 1]]``.

    Each support level gets one segment of length ``weight * dt``, in level
    order, starting where the one before it ends (a running sum from the
    interval start).  The last segment of an interval ends at
    ``times[i] + dt`` exactly, so the segments tile it despite rounding.
    """
    times = np.asarray(times, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    dts = np.diff(times)
    counts = np.diff(offsets)
    interval = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(interval.size) - offsets[interval]
    lengths = np.asarray(weights, dtype=float) * dts[interval]
    ends, edge = np.empty(interval.size), times[:-1].copy()
    active = np.arange(counts.size)
    for r in range(int(counts.max(initial=0))):
        # rank r of every interval at once: O(S) work and memory in all
        active = active[counts[active] > r]
        edge[active] += lengths[offsets[active] + r]
        ends[offsets[active] + r] = edge[active]
    starts = np.where(rank == 0, times[interval], np.roll(ends, 1))
    ends[offsets[1:] - 1] = times[:-1] + dts
    return starts, ends, interval, rank


def control_from_measure(grid: LevelGrid, measure: ChatteringMeasure) -> Array:
    """Convex combination sum_k a_k c_k; lies in the hull of the levels and
    hence inside the control box."""
    if grid.K != measure.weights.size:
        raise DimensionMismatch(
            f"grid has {grid.K} levels but measure has {measure.weights.size} weights"
        )
    return measure.weights @ grid.levels


# ---------------------------------------------------------------------------
# Level generation
# ---------------------------------------------------------------------------


def _coarsen_counts(problem: ControlProblem, k_per_dim: int, cap: int) -> np.ndarray:
    """Per-dimension level counts, as uniform as possible, with product <= cap
    (read-only, shared between equal calls: see ``_counts_for_widths``)."""
    widths = problem.control_upper - problem.control_lower
    return _counts_for_widths(widths.tobytes(), k_per_dim, cap)


@functools.lru_cache(maxsize=64)
def _counts_for_widths(widths: bytes, k_per_dim: int, cap: int) -> np.ndarray:
    """``_coarsen_counts`` for the control widths given as float64 bytes.

    Counts are raised round-robin from 1 toward ``k_per_dim``, stopping as
    soon as another increment would bust the cap.  Within a round, dimensions
    with a wider control range come first (ties by index): under heavy cap
    pressure only some dimensions can afford a second point, and an extra
    point buys the most where the range it discretizes is widest.  A
    zero-width dimension holds one value and is never raised.  Cached because
    the counts depend on nothing that changes between intervals.
    """
    w = np.frombuffer(widths)
    order = sorted(np.flatnonzero(w > 0.0).tolist(), key=lambda j: (-w[j], j))
    counts = np.ones(w.size, dtype=int)
    product = 1
    while True:
        bumped = False
        for j in order:
            if counts[j] >= k_per_dim:
                continue
            trial = product // counts[j] * (counts[j] + 1)
            if trial <= cap:
                counts[j] += 1
                product = trial
                bumped = True
        if not bumped:
            counts.setflags(write=False)
            return counts


def _in_box(problem: ControlProblem, x_next: Array, coords=slice(None)) -> np.ndarray:
    """Which rows of ``x_next`` lie inside the state box within
    STEP_FEASIBILITY_TOL; the columns of ``x_next`` are the state
    coordinates ``coords`` (all of them by default)."""
    ok = np.ones(x_next.shape[0], dtype=bool)
    if problem.state_lower is not None:
        ok &= np.all(x_next >= problem.state_lower[coords] - STEP_FEASIBILITY_TOL, axis=1)
    if problem.state_upper is not None:
        ok &= np.all(x_next <= problem.state_upper[coords] + STEP_FEASIBILITY_TOL, axis=1)
    return ok


def _bisect_ends(
    problem: ControlProblem,
    step: Callable[[Array], Array],
    anchor: Array,
    cols: Array,
    a: Array,
    b: Array,
) -> Array:
    """Bisect each control dimension ``cols[r]`` between its feasible point
    ``a[r]`` and its infeasible end ``b[r]``, the other controls held at
    ``anchor``; returns the last feasible points."""
    rows = np.arange(cols.size)
    probe = np.tile(anchor, (cols.size, 1))
    for _ in range(BOUND_SEARCH_ITERATIONS):
        mid_ab = 0.5 * (a + b)
        probe[rows, cols] = mid_ab
        ok = _in_box(problem, step(probe))
        a = np.where(ok, mid_ab, a)
        b = np.where(ok, b, mid_ab)
    return a


def _affine_ends(
    problem: ControlProblem,
    dt: float,
    x_start: Array,
    cols: Array,
    a: Array,
    b: Array,
) -> Array:
    """Closed-form twin of ``_bisect_ends`` for control-affine dynamics.

    Moving control ``cols[r]`` a distance w from ``a[r]`` toward ``b[r]``
    moves the next state from its feasible value ``x_start[r]`` along
    ``+-dt * control_matrix[cols[r]]``, so the distance at which the first
    state bound binds is one division per state coordinate (zero rates bind
    nothing).  The end returned is the bisection's: the last point of its
    grid ``a + k (b - a) 2**-BOUND_SEARCH_ITERATIONS`` within that distance,
    so it stays inside the bound by less than one bracket, as the
    bisection's does.  The margin matters: an end exactly on a bound can
    round outside it once several dimensions move together in the product
    filter, which drops a level that the bisection keeps.
    """
    sign = np.sign(b - a)
    rate = sign[:, None] * (dt * problem.control_matrix[cols])
    reach = np.full(rate.shape, np.inf)
    # the slack at x_start is >= 0: it passed the same comparison in _in_box
    if problem.state_lower is not None:
        slack = x_start - (problem.state_lower - STEP_FEASIBILITY_TOL)
        falling = rate < 0.0
        reach[falling] = slack[falling] / -rate[falling]
    if problem.state_upper is not None:
        slack = (problem.state_upper + STEP_FEASIBILITY_TOL) - x_start
        rising = rate > 0.0
        reach[rising] = np.minimum(reach[rising], slack[rising] / rate[rising])
    bracket = np.abs(b - a) * 2.0 ** -BOUND_SEARCH_ITERATIONS
    # b itself is infeasible and never a bisection point
    steps = np.minimum(np.floor(reach.min(axis=1) / bracket), 2.0**BOUND_SEARCH_ITERATIONS - 1)
    return a + sign * (steps * bracket)


def level_bound_search(
    problem: ControlProblem, t: float, x: Array, dt: float, dims: Sequence[int]
) -> List[Tuple[float, float]]:
    """Admissible scalar range ``(lo, hi)`` of each control dimension in
    ``dims``: the largest subinterval of its control bounds whose endpoints
    keep one explicit Euler step inside the state box.

    The other dimensions are held at an anchor: the midpoint of the control
    box, then (for dimensions whose whole slice was infeasible) the lower
    bound, then the upper bound.  A dimension is found at the first anchor
    where its lower end, upper end or midpoint is feasible (the start point,
    in that order of preference); each infeasible end is then found from the
    start point, which assumes the violation is monotone toward that end.
    Control-affine problems get that end in closed form (``_affine_ends``)
    from one drift evaluation; others bisect.  Without state bounds the full
    control intervals come back unchanged.  Raises ``InfeasibleLevels`` when
    some dimension has no feasible point at any anchor.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    dims = list(dims)
    if any(not 0 <= d < problem.control_dim for d in dims):
        raise ValueError(f"control dimensions {dims} out of range")
    if not problem.has_state_bounds:
        return [(float(problem.control_lower[d]), float(problem.control_upper[d])) for d in dims]
    x = np.asarray(x, dtype=float)
    drift = None if problem.drift is None else eval_drift(problem, t, x)
    return _search_ranges(problem, t, x, dt, dims, drift)


def _search_ranges(
    problem: ControlProblem, t: float, x: Array, dt: float, dims: Sequence[int], drift: Optional[Array]
) -> List[Tuple[float, float]]:
    """``level_bound_search`` with state bounds; ``drift`` is None without the hooks."""
    lower, upper = problem.control_lower, problem.control_upper
    lo_out, hi_out = np.array(lower), np.array(upper)
    pending = np.asarray(dims, dtype=np.intp)

    def step(probe: Array) -> Array:
        if drift is not None:
            return x + dt * (drift + probe @ problem.control_matrix)
        return x + dt * eval_dynamics_batch(problem, t, x, probe)

    for anchor in (0.5 * (lower + upper), lower, upper):
        if pending.size == 0:
            break
        rows = np.arange(pending.size)
        lo, hi, mid = lower[pending], upper[pending], 0.5 * (lower[pending] + upper[pending])
        # both ends of every pending dimension in one batch, interleaved lo/hi
        probe = np.tile(anchor, (2 * pending.size, 1))
        probe[0::2][rows, pending] = lo
        probe[1::2][rows, pending] = hi
        ends = step(probe)
        ends_ok = _in_box(problem, ends).reshape(-1, 2)
        lo_ok, hi_ok = ends_ok[:, 0], ends_ok[:, 1]
        found = lo_ok | hi_ok
        # the next state at each dimension's start point
        x_start = np.where(lo_ok[:, None], ends[0::2], ends[1::2])
        both_bad = ~found
        if np.any(both_bad):
            probe = np.tile(anchor, (int(both_bad.sum()), 1))
            probe[np.arange(probe.shape[0]), pending[both_bad]] = mid[both_bad]
            mids = step(probe)
            found[both_bad] = _in_box(problem, mids)
            x_start[both_bad] = mids
        # one search row per (dimension, infeasible end), lower end first
        search = np.stack([found & ~lo_ok, found & ~hi_ok], axis=1)
        which, side = np.nonzero(search)
        if which.size:
            cols = pending[which]
            a = np.where(lo_ok, lo, np.where(hi_ok, hi, mid))[which]  # feasible
            b = np.where(side == 0, lo[which], hi[which])  # infeasible
            if drift is not None:
                a = _affine_ends(problem, dt, x_start[which], cols, a, b)
            else:
                a = _bisect_ends(problem, step, anchor, cols, a, b)
            lo_out[cols[side == 0]] = a[side == 0]
            hi_out[cols[side == 1]] = a[side == 1]
        pending = pending[~found]
    if pending.size:
        raise InfeasibleLevels(
            f"no admissible control level found for dimension(s) {pending.tolist()} "
            f"at t={t}: state bounds and step size are incompatible here"
        )
    return [(float(lo_out[d]), float(hi_out[d])) for d in dims]


def _uniform_grid(lo: float, hi: float, count: int) -> Array:
    # np.linspace semantics with exact endpoints, without its overhead (this
    # runs per dimension per interval)
    if count == 1 or lo == hi:
        return np.array([lo])
    if count == 2:
        return np.array([lo, hi])
    vals = lo + (hi - lo) / (count - 1) * np.arange(count)
    vals[-1] = hi
    return vals


def _dedupe_sorted(vals: Array) -> Array:
    if vals.size <= 1:
        return vals
    keep = np.empty(vals.size, dtype=bool)
    keep[0] = True
    np.greater(vals[1:], vals[:-1], out=keep[1:])
    return vals if keep.all() else vals[keep]


def _scalar_grid(
    gated: Optional[Tuple[float, float]], dim: int, c_lo: float, c_hi: float, count: int
) -> Array:
    """Distinct ascending level values for control dimension ``dim``, whose
    active range is ``gated`` if it is a gated dimension (None otherwise)."""
    if gated is None:
        return _dedupe_sorted(_uniform_grid(c_lo, c_hi, count))
    active_lo = max(gated[0], c_lo)
    active_hi = min(gated[1], c_hi)
    values: List[float] = []
    if c_lo <= 0.0 <= c_hi:
        values.append(0.0)
    slots = count - len(values)
    if active_lo <= active_hi and (slots > 0 or not values):
        values.extend(_uniform_grid(active_lo, active_hi, max(slots, 1)))
    if not values:
        raise InfeasibleLevels(
            f"gated control dimension {dim} admits neither zero nor its active range"
        )
    vals = np.asarray(values, dtype=float)
    # the active grid ascends, so only a zero placed before it can be out of order
    if vals.size > 1 and vals[0] > vals[1]:
        vals.sort()
    return _dedupe_sorted(vals)


@functools.lru_cache(maxsize=64)
def _product_indices(sizes: Tuple[int, ...]) -> Array:
    """Positions into the concatenated per-dimension grids that enumerate
    their Cartesian product in lexicographic order, as a read-only
    ``(prod(sizes), len(sizes))`` matrix.  Cached because interval after
    interval reuses the same per-dimension counts."""
    total = int(np.prod(sizes))
    pos = np.empty((total, len(sizes)), dtype=np.intp)
    stride = total
    offset = 0
    rows = np.arange(total)
    for j, size in enumerate(sizes):
        stride //= size
        pos[:, j] = rows // stride % size + offset
        offset += size
    pos.setflags(write=False)
    return pos


def _affine_in_box(
    problem: ControlProblem,
    x_i: Array,
    dt: float,
    drift: Array,
    levels: Array,
    values: Array,
    sizes: Tuple[int, ...],
) -> np.ndarray:
    """``_in_box`` of the next states ``x_i + dt * (drift + levels @ B)`` of
    the product of the scalar grids (concatenated in ``values``, with
    ``sizes`` values each), for control-affine dynamics.  Next
    state i spans ``x_i + dt * (drift_i + sum_j [min, max] of v * B[j, i]
    over grid j)``; a coordinate whose span, widened by a margin for the
    rounding of the rows and of these sums (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 3.1), lies in the box needs no row test.  The
    rest are tested on every row as the rows compute, so the mask is exact."""
    B = problem.control_matrix
    starts = np.cumsum((0,) + sizes[:-1])
    terms = values[:, None] * np.repeat(B, sizes, axis=0)
    scale = np.abs(x_i) + dt * (np.abs(drift) + np.maximum.reduceat(np.abs(terms), starts).sum(axis=0))
    margin = 2 * (B.shape[0] + 4) * np.finfo(float).eps * scale
    open_ = np.zeros(x_i.size, dtype=bool)
    if problem.state_lower is not None:
        low = x_i + dt * (drift + np.minimum.reduceat(terms, starts).sum(axis=0)) - margin
        open_ |= low < problem.state_lower - STEP_FEASIBILITY_TOL
    if problem.state_upper is not None:
        high = x_i + dt * (drift + np.maximum.reduceat(terms, starts).sum(axis=0)) + margin
        open_ |= high > problem.state_upper + STEP_FEASIBILITY_TOL
    if not open_.any():
        return np.ones(levels.shape[0], dtype=bool)
    return _in_box(problem, x_i[open_] + dt * (drift + levels @ B)[:, open_], open_)


def _grid_values(
    gated_dims: Optional[Mapping[int, Tuple[float, float]]],
    ranges: Sequence[Tuple[float, float]],
    counts: Array,
) -> Tuple[Array, Tuple[int, ...]]:
    """The per-dimension grids over ``ranges`` with ``counts`` points,
    concatenated, and their sizes."""
    gated_dims = gated_dims or {}
    grids = [
        _scalar_grid(gated_dims.get(j), j, lo, hi, int(count))
        for j, ((lo, hi), count) in enumerate(zip(ranges, counts))
    ]
    return np.concatenate(grids), tuple(int(g.size) for g in grids)


def _product_levels(values: Array, sizes: Tuple[int, ...]) -> Array:
    """The lexicographic Cartesian product of the grids that ``_grid_values``
    returned: one gather (dimension count is not limited the way np.meshgrid
    is); an index, not ndarray.take, which copies a read-only
    ``_product_indices`` matrix every call."""
    return values[_product_indices(sizes)]


@functools.lru_cache(maxsize=16)
def _unbounded_grid(control_key: tuple, params: GridParams) -> LevelGrid:
    """The level grid of every interval of a problem without state bounds,
    whose ranges are the control bounds; ``control_key`` is the problem's
    (see ``ControlProblem.control_key``)."""
    lower, upper, gates = control_key
    lo, hi = np.frombuffer(lower), np.frombuffer(upper)
    counts = _counts_for_widths((hi - lo).tobytes(), params.k_per_dim, params.cap)
    gated_dims = {dim: (g_lo, g_hi) for dim, g_lo, g_hi in gates}
    values, sizes = _grid_values(gated_dims, list(zip(lo.tolist(), hi.tolist())), counts)
    return LevelGrid(_product_levels(values, sizes))


def generate_levels_with_dynamics(
    problem: ControlProblem, t: float, x_i: Array, dt: float, params: GridParams,
    drift: Optional[Array] = None, memo: Optional[LevelMemo] = None,
) -> Tuple[LevelGrid, Optional[Array]]:
    """Build the level grid for one interval at state ``x_i``.

    Per control dimension a uniform grid covers the admissible range (the
    control bounds, shrunk where a one-step state prediction would leave the
    state box).  The multidimensional grid is the Cartesian product with
    per-dimension counts coarsened uniformly so the total stays within
    ``params.cap``; when state bounds are present, product vectors whose
    joint one-step prediction leaves the box are dropped (for control-affine
    problems, by the separable bound of ``_affine_in_box``).  Rows come back
    sorted lexicographically, in a read-only array that the grid shares.
    Without state bounds the grid is built once per distinct control bounds,
    gated dimensions and ``params``, and shared read-only.  ``drift`` is the
    control-affine drift at (t, x_i) when the caller has it already; it is
    evaluated here otherwise.

    ``memo`` (see ``LevelMemo``) keeps, per interval ``(t, dt)``, the state
    and the scalar grids and keep mask built there.  When ``x_i`` equals that
    state bit for bit, the range search, the scalar grids and the box test
    are skipped and the same levels are gathered again; a miss replaces the
    entry, and a failed build leaves none.  One memo serves one problem and
    one ``params``.

    Also returns the dynamics rows at the kept levels when the problem has
    state bounds and no control-affine hooks (the filter evaluated them, so
    the propagation loop skips a second sweep), None otherwise: the loop
    sweeps a control-affine Hamiltonian in factored form.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not problem.has_state_bounds:
        return _unbounded_grid(problem.control_key, params), None
    x_i = np.asarray(x_i, dtype=float)
    state = x_i.tobytes()
    entry = None if memo is None else memo.pop((t, dt), None)
    if entry is not None and entry[0] == state:
        _, values, sizes, keep = entry
        levels = _product_levels(values, sizes)
        # the rows of the whole product, as on the first build: a batch
        # evaluator need not give a row the same bits in a smaller batch
        f = eval_dynamics_batch(problem, t, x_i, levels) if problem.drift is None else None
    else:
        if drift is None and problem.drift is not None:
            drift = eval_drift(problem, t, x_i)
        ranges = _search_ranges(problem, t, x_i, dt, range(problem.control_dim), drift)
        counts = _coarsen_counts(problem, params.k_per_dim, params.cap)
        values, sizes = _grid_values(problem.gated_dims, ranges, counts)
        levels = _product_levels(values, sizes)
        if drift is None:
            f = eval_dynamics_batch(problem, t, x_i, levels)
            keep = _in_box(problem, x_i + dt * f)
        else:
            f, keep = None, _affine_in_box(problem, x_i, dt, drift, levels, values, sizes)
        if not np.any(keep):
            raise InfeasibleLevels(
                f"no product level satisfies the one-step state bounds at t={t}"
            )
        keep = None if np.all(keep) else keep
    if memo is not None:
        memo[(t, dt)] = (state, values, sizes, keep)
    if keep is not None:
        levels, f = levels[keep], None if f is None else f[keep]
    levels.setflags(write=False)
    return LevelGrid(levels), f
