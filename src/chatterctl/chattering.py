"""Chattering level grids, the per-interval measure LP, and the duty-cycle
schedule.

On each time interval the control set is discretized into a finite set of
*levels* (constant control vectors).  A *chattering measure* assigns each
level a time share on the interval; rapidly switching between levels with
those duty cycles emulates, in time average, any control in the levels'
convex hull.  Minimizing the interval Hamiltonian over measures is a linear
program on the probability simplex whose optimum is analytic: put all weight
on the level(s) with the smallest Hamiltonian value.

Everything here is a pure function of its inputs, apart from the
``LevelCache`` that the level generator fills with the work it reuses;
grids are read-only, and immutable unless they share the cache's product
buffer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    and a write through it then changes ``levels``.  The level generator
    does so with a ``LevelCache``'s column-major product buffer, so a grid
    built with one is valid only until that cache's next build.

    ``lo`` and ``hi`` are the per-dimension control ranges the grid spans,
    when its builder keeps them: the ranges in which
    ``ControlProblem.hamiltonian_argmin`` prices (see
    ``generate_levels_with_dynamics``).
    """

    levels: Array
    lo: Optional[Array] = None
    hi: Optional[Array] = None

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
    # ufunc reduce, argmin and nonzero skip numpy's Python-level wrappers
    # (ndarray.all, min, flatnonzero): half the cost on a short h
    if not np.logical_and.reduce(np.isfinite(h)):
        raise ValueError("h_values must be finite")
    tied = (h <= h[h.argmin()] + TIE_TOL).nonzero()[0]
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


# ---------------------------------------------------------------------------
# Level generation
# ---------------------------------------------------------------------------


def _coarsen_counts(problem: ControlProblem, k_per_dim: int, cap: int) -> np.ndarray:
    """Per-dimension level counts, as uniform as possible, with product <= cap,
    read-only.

    Counts are raised round-robin from 1 toward ``k_per_dim``, stopping as
    soon as another increment would bust the cap.  Within a round, dimensions
    with a wider control range come first (ties by index): under heavy cap
    pressure only some dimensions can afford a second point, and an extra
    point buys the most where the range it discretizes is widest.  A
    zero-width dimension holds one value and is never raised.
    """
    w = problem.control_upper - problem.control_lower
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
    Each dimension's range depends on that dimension alone, so a call on a
    subset of the dimensions returns the full call's entries for them.
    Control-affine problems get every range in one pass from one drift
    evaluation, each infeasible end in closed form (see ``_search_ranges``);
    others bisect.  Without state bounds the full control intervals come
    back unchanged.  Raises ``InfeasibleLevels`` when some dimension has no
    feasible point at any anchor.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    dims = list(dims)
    if any(not 0 <= d < problem.control_dim for d in dims):
        raise ValueError(f"control dimensions {dims} out of range")
    if not problem.has_state_bounds:
        return [(float(problem.control_lower[d]), float(problem.control_upper[d])) for d in dims]
    x = np.asarray(x, dtype=float)
    drift = terms = None
    if problem.drift is not None:
        drift, terms = eval_drift(problem, t, x), _affine_terms(problem)
    lo, hi = _search_ranges(problem, t, x, dt, dims, drift, terms)
    return [(float(lo[d]), float(hi[d])) for d in dims]


def _search_ranges(
    problem: ControlProblem, t: float, x: Array, dt: float, dims: Sequence[int],
    drift: Optional[Array], terms: Optional[_AffineTerms],
) -> Tuple[Array, Array]:
    """``level_bound_search`` with state bounds, as the lower and the upper
    ends of every control dimension (its control bounds where it is not in
    ``dims``); ``drift`` and the problem's ``_AffineTerms`` are None without
    the hooks.

    With the hooks the search is one fixed-shape pass (``_affine_ranges``)
    over every anchor, probe point and control dimension, with no dynamics
    call; without them each anchor in turn sends its probe rows and
    bisection steps through ``eval_dynamics_batch`` (``_bisect_ranges``).
    """
    dims = np.asarray(dims, dtype=np.intp)
    if drift is None:
        lo, hi, missing = _bisect_ranges(problem, t, x, dt, dims)
    else:
        lo, hi, missing = _affine_ranges(problem, x, dt, dims, drift, terms)
    if missing.size:
        raise InfeasibleLevels(
            f"no admissible control level found for dimension(s) {missing.tolist()} "
            f"at t={t}: state bounds and step size are incompatible here"
        )
    return lo, hi


def _bisect_ranges(
    problem: ControlProblem, t: float, x: Array, dt: float, dims: Array
) -> Tuple[Array, Array, Array]:
    """``_search_ranges`` without the hooks, anchor by anchor over the
    dimensions not yet found; also returns the dimensions of ``dims``
    found at no anchor."""
    lower, upper = problem.control_lower, problem.control_upper
    lo_out, hi_out = np.array(lower), np.array(upper)
    pending = dims

    def step(probe: Array) -> Array:
        return x + dt * eval_dynamics_batch(problem, t, x, probe)

    def next_states(anchor: Array, cols: Array, v: Array) -> Array:
        """The next states with control ``cols[r]`` at ``v[r]``, the others
        at ``anchor``."""
        probe = np.tile(anchor, (cols.size, 1))
        probe[np.arange(cols.size), cols] = v
        return step(probe)

    for anchor in (0.5 * (lower + upper), lower, upper):
        if pending.size == 0:
            break
        lo, hi, mid = lower[pending], upper[pending], 0.5 * (lower[pending] + upper[pending])
        # both ends of every pending dimension in one batch, interleaved lo/hi
        ends = next_states(anchor, np.repeat(pending, 2), np.stack([lo, hi], axis=1).ravel())
        ends_ok = _in_box(problem, ends).reshape(-1, 2)
        lo_ok, hi_ok = ends_ok[:, 0], ends_ok[:, 1]
        found = lo_ok | hi_ok
        both_bad = ~found
        if np.any(both_bad):
            mids = next_states(anchor, pending[both_bad], mid[both_bad])
            found[both_bad] = _in_box(problem, mids)
        # one search row per (dimension, infeasible end), lower end first
        search = np.stack([found & ~lo_ok, found & ~hi_ok], axis=1)
        which, side = np.nonzero(search)
        if which.size:
            cols = pending[which]
            a = np.where(lo_ok, lo, np.where(hi_ok, hi, mid))[which]  # feasible
            b = np.where(side == 0, lo[which], hi[which])  # infeasible
            a = _bisect_ends(problem, step, anchor, cols, a, b)
            lo_out[cols[side == 0]] = a[side == 0]
            hi_out[cols[side == 1]] = a[side == 1]
        pending = pending[~found]
    return lo_out, hi_out, pending


class _AffineTerms(NamedTuple):
    """What the control-affine range search and box filter need of a
    problem alone, built once per ``LevelCache`` (see ``_affine_terms``).
    The anchors are the midpoint, the lower and the upper corner of the
    control box; the probe points of a control dimension, which are also
    the start points an infeasible end is searched from, are its lower end,
    upper end and midpoint."""

    #: ``(3, m)``: the probe points, lower end, upper end, midpoint
    points: Array
    #: ``(3, n)``: ``anchor @ B`` of each anchor
    anchor_steps: Array
    #: ``(3, 3, m, n)``: ``(v - anchor_d) * B[d]`` for anchor, probe point
    #: v and dimension d
    shifts: Array
    #: ``(3, m, 2)``: ``sign(b - a)`` for start point a, dimension, and the
    #: end b searched for (lower, upper)
    signs: Array
    #: ``(3, m, 2)``: the bisection bracket ``|b - a| * 2**-BOUND_SEARCH_ITERATIONS``
    brackets: Array
    #: ``(3, n)``: ``_open_coords``'s ``low``, ``high`` and ``largest`` over
    #: the whole control box
    box_sums: Array


def _affine_terms(problem: ControlProblem) -> _AffineTerms:
    """The ``_AffineTerms`` of a problem with the control-affine hooks, as
    read-only arrays."""
    lo, hi, B = problem.control_lower, problem.control_upper, problem.control_matrix
    points = np.stack([lo, hi, 0.5 * (lo + hi)])
    anchors = (points[2], lo, hi)
    gaps = np.stack([np.stack([lo - a, hi - a], axis=1) for a in points])
    terms = _AffineTerms(
        points,
        np.stack([a @ B for a in anchors]),
        np.stack([(points - a)[:, :, None] * B for a in anchors]),
        np.sign(gaps),
        np.abs(gaps) * 2.0 ** -BOUND_SEARCH_ITERATIONS,
        np.stack(_separable_sums(lo, hi, B)),
    )
    for a in terms:
        a.setflags(write=False)
    return terms


def _affine_ranges(
    problem: ControlProblem, x: Array, dt: float, dims: Array, drift: Array, terms: _AffineTerms
) -> Tuple[Array, Array, Array]:
    """``_search_ranges`` with the hooks in one pass; also returns the
    dimensions of ``dims`` found at no anchor.

    Moving control d from an anchor to v moves the next state from ``x +
    dt * (drift + anchor @ B)`` by ``dt * (v - anchor_d) * B[d]``, so the
    probe states of every anchor, probe point and dimension are one
    ``(3, 3, m, n)`` block with one ``_in_box``.  Each dimension takes the
    first anchor where a probe is feasible; every dimension is computed and
    those of ``dims`` are kept, since none depends on another.

    From the start point a, moving toward the infeasible end b a distance
    w moves the next state along ``+-dt * B[d]``, so the distance at which
    the first state bound binds is one division per state coordinate (zero
    rates bind nothing), for every dimension and end at once.  The end
    returned is the bisection's: the last point of its grid ``a + k (b - a)
    2**-BOUND_SEARCH_ITERATIONS`` within that distance, so it stays inside
    the bound by less than one bracket, as the bisection's does.  The
    margin matters: an end exactly on a bound can round outside it once
    several dimensions move together in the product filter, which drops a
    level that the bisection keeps.
    """
    m, n = problem.control_dim, problem.state_dim
    cols = np.arange(m)
    probes = (x + dt * (drift + terms.anchor_steps))[:, None, None] + dt * terms.shifts
    ok = _in_box(problem, probes.reshape(-1, n)).reshape(3, 3, m)
    found = ok.any(axis=1)
    anchor = found.argmax(axis=0)
    feasible = found[anchor, cols]
    ok = ok[anchor, :, cols]
    start = ok.argmax(axis=1)  # the lower end, else the upper end, else the midpoint
    x_start = probes[anchor, start, cols]
    # one search per (dimension, infeasible end), lower end first
    search = ~ok[:, :2] & feasible[:, None]
    sign = terms.signs[start, cols]
    rate = sign[:, :, None] * (dt * problem.control_matrix)[:, None]
    # where a search starts, the slack at x_start is >= 0: it passed the
    # same comparison in _in_box
    slack = np.full((2, m, 1, n), np.inf)
    if problem.state_lower is not None:
        slack[0, :, 0] = x_start - (problem.state_lower - STEP_FEASIBILITY_TOL)
    if problem.state_upper is not None:
        slack[1, :, 0] = (problem.state_upper + STEP_FEASIBILITY_TOL) - x_start
    reach = np.divide(
        np.where(rate < 0.0, slack[0], slack[1]), np.abs(rate),
        out=np.full(rate.shape, np.inf), where=search[:, :, None] & (rate != 0.0),
    )
    bracket = terms.brackets[start, cols]
    steps = np.divide(reach.min(axis=2), bracket, out=np.zeros((m, 2)), where=search)
    # b itself is infeasible and never a bisection point
    steps = np.minimum(np.floor(steps), 2.0**BOUND_SEARCH_ITERATIONS - 1)
    ends = terms.points[start, cols][:, None] + sign * (steps * bracket)
    wanted = np.zeros(m, dtype=bool)
    wanted[dims] = True
    search &= wanted[:, None]
    lo = np.where(search[:, 0], ends[:, 0], problem.control_lower)
    hi = np.where(search[:, 1], ends[:, 1], problem.control_upper)
    return lo, hi, dims[~feasible[dims]]


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
def _segments(sizes: Tuple[int, ...]) -> Tuple[Array, Array]:
    """Where each grid starts and where it ends (its last value) in the
    concatenated grids, read-only; cached because interval after interval
    reuses the same sizes."""
    lasts = np.cumsum(sizes) - 1
    starts = lasts - sizes + 1
    starts.setflags(write=False)
    lasts.setflags(write=False)
    return starts, lasts


def _open_coords(
    problem: ControlProblem, x_i: Array, dt: float, drift: Array, low: Array, high: Array, largest: Array
) -> np.ndarray:
    """The state coordinates that the separable bound cannot clear.  Entry i
    of ``low`` and ``high`` holds the sum over controls j of the least and
    the greatest ``v * B[j, i]`` over the values v of control j, and
    ``largest`` the sum of the greatest ``|v * B[j, i]|``, so next state i
    spans ``x_i + dt * (drift_i + [low_i, high_i])``.  The span is widened
    by a margin for the rounding of the rows and of these sums (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.1); a coordinate
    whose widened span lies in the box needs no row test."""
    scale = np.abs(x_i) + dt * (np.abs(drift) + largest)
    margin = 2 * (problem.control_dim + 4) * np.finfo(float).eps * scale
    open_ = np.zeros(x_i.size, dtype=bool)
    if problem.state_lower is not None:
        open_ |= x_i + dt * (drift + low) - margin < problem.state_lower - STEP_FEASIBILITY_TOL
    if problem.state_upper is not None:
        open_ |= x_i + dt * (drift + high) + margin > problem.state_upper + STEP_FEASIBILITY_TOL
    return open_


def _separable_sums(first: Array, last: Array, B: Array) -> Tuple[Array, Array, Array]:
    """``_open_coords``'s ``low``, ``high`` and ``largest`` for controls
    whose values ascend from ``first`` to ``last``.  ``v * B[j, i]`` is
    monotone in v, rounding included, so over control j's values its least,
    its greatest and its largest magnitude are taken at the two ends."""
    at_first, at_last = first[:, None] * B, last[:, None] * B
    return (
        np.minimum(at_first, at_last).sum(axis=0),
        np.maximum(at_first, at_last).sum(axis=0),
        np.maximum(np.abs(at_first), np.abs(at_last)).sum(axis=0),
    )


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
    ``sizes`` values each), for control-affine dynamics.  The separable
    bound takes each grid's first and last value, the same elements that
    bound ``v * B[j, i]`` over the whole grid.  The coordinates that
    ``_open_coords`` clears get no row test; the rest are tested on every
    row as the rows compute, so the mask is exact."""
    B = problem.control_matrix
    starts, lasts = _segments(sizes)
    open_ = _open_coords(problem, x_i, dt, drift, *_separable_sums(values[starts], values[lasts], B))
    if not open_.any():
        return np.ones(levels.shape[0], dtype=bool)
    return _in_box(problem, x_i[open_] + dt * (drift + levels @ B)[:, open_], open_)


def _box_steps_inside(
    problem: ControlProblem, x_i: Array, dt: float, drift: Array, terms: _AffineTerms
) -> bool:
    """Whether ``_open_coords`` clears every state coordinate over the whole
    control box (each control's values spanning its bounds).  Every grid
    value lies within the bounds and rounding is monotone, so the box filter
    then keeps every level, and the range search, whose probes stay inside
    the box, keeps every range whole: the level grid is the whole-box one."""
    return not _open_coords(problem, x_i, dt, drift, *terms.box_sums).any()


class LevelCache:
    """What level generation reuses for one problem and one ``GridParams``;
    ``generate_levels_with_dynamics`` refuses it for any other.

    Computed from the problem's arrays when the cache is built: ``counts``,
    the level count of each control dimension (``_coarsen_counts``), and
    ``terms``, the ``_AffineTerms`` of a problem with the control-affine
    hooks and state bounds (None otherwise).  Built on first use:
    ``box_grid``, the grid over the whole control box, which is the grid of
    every interval without state bounds and of every interval whose whole
    control box steps inside the state box (``_box_steps_inside``).

    Kept from the builds before, which the next build starts from: ``lo``
    and ``hi``, the range ends of the last search, with ``grids``, the
    scalar grid of each control dimension over them; and ``values`` and
    ``sizes``, the concatenated grids of the last product and their sizes,
    with ``levels``, the buffer that holds that whole product before the
    box filter; all None until the first such build.  The cache owns
    ``levels``: a column-major ``(K, m)`` array, read-only to everyone
    else, that each build writes over in place (``_product_levels``), so a
    grid or a batch-hook block that shares it is valid only until the next
    build with this cache.

    ``memo`` is None, or a dict that keeps per interval ``(t, dt)`` the
    start state's bytes, the searched ranges (None without a
    ``hamiltonian_argmin``, their one reader), the concatenated scalar
    grids, their sizes and the keep mask (None when every level is kept)
    of the last build there, with none of these but the state where
    ``box_grid`` was returned; never levels or dynamics rows, whose size
    would grow the peak memory by megabytes.  ``solve`` gives its cache
    one, because its propagations start intervals again from the same
    states; a lone propagation never does.
    """

    def __init__(self, problem: ControlProblem, params: GridParams):
        self.problem, self.params = problem, params
        self.counts = _coarsen_counts(problem, params.k_per_dim, params.cap)
        affine = problem.drift is not None and problem.has_state_bounds
        self.terms = _affine_terms(problem) if affine else None
        self.lo = self.hi = self.grids = self.values = self.sizes = self.levels = None
        self.memo: Optional[Dict[Tuple[float, float], tuple]] = None

    @functools.cached_property
    def box_grid(self) -> LevelGrid:
        problem = self.problem
        lo, hi = problem.control_lower, problem.control_upper
        values, sizes = _grid_values(problem.gated_dims, lo, hi, self.counts)
        return LevelGrid(_product_levels(values, sizes), lo, hi)


def _grid_values(
    gated_dims: Optional[Mapping[int, Tuple[float, float]]],
    lo: Array,
    hi: Array,
    counts: Array,
    cache: Optional[LevelCache] = None,
) -> Tuple[Array, Tuple[int, ...]]:
    """The per-dimension grids from ``lo`` to ``hi`` with ``counts``
    points, concatenated, and their sizes.  A dimension whose range ends
    equal ``cache``'s bit for bit keeps its grid; ``cache`` then takes
    these ranges and grids."""
    gated_dims = gated_dims or {}
    lo_list, hi_list = lo.tolist(), hi.tolist()
    if cache is None or cache.grids is None:
        grids = [None] * len(lo_list)
        redo = range(len(lo_list))
    else:
        grids = list(cache.grids)
        moved = (lo.view(np.int64) != cache.lo.view(np.int64)) | (
            hi.view(np.int64) != cache.hi.view(np.int64)
        )
        redo = np.flatnonzero(moved).tolist()
    for j in redo:
        grids[j] = _scalar_grid(gated_dims.get(j), j, lo_list[j], hi_list[j], int(counts[j]))
    if cache is not None:
        cache.lo, cache.hi, cache.grids = lo, hi, grids
    return np.concatenate(grids), tuple(g.size for g in grids)


def _product_levels(values: Array, sizes: Tuple[int, ...], cache: Optional[LevelCache] = None) -> Array:
    """The lexicographic Cartesian product of the grids that ``_grid_values``
    returned, as a read-only column-major ``(K, m)`` array (dimension count
    is not limited the way np.meshgrid is), written one column at a time:
    column j runs through grid j in blocks of ``prod(sizes[j + 1:])`` equal
    rows.

    With ``cache`` the product is written into its buffer in place: only
    the columns whose grids differ from ``cache.values`` bit for bit, or
    every column when the sizes changed; a new buffer is allocated only
    when K changes.  ``cache`` then holds these grids and the buffer.
    Without it every call writes a new array."""
    K, m = math.prod(sizes), len(sizes)
    starts = _segments(sizes)[0]
    levels = None if cache is None else cache.levels
    if levels is None or levels.shape[0] != K:
        levels, changed = np.empty((K, m), order="F"), range(m)
    elif cache.sizes != sizes:
        changed = range(m)
    else:
        differs = values.view(np.int64) != cache.values.view(np.int64)
        changed = np.flatnonzero(np.logical_or.reduceat(differs, starts)).tolist()
    levels.setflags(write=True)
    for j in changed:
        blocks = levels[:, j].reshape(-1, sizes[j], math.prod(sizes[j + 1:]))
        blocks[...] = values[starts[j]:starts[j] + sizes[j], None]
    levels.setflags(write=False)
    if cache is not None:
        cache.values, cache.sizes, cache.levels = values, sizes, levels
    return levels


def generate_levels_with_dynamics(
    problem: ControlProblem, t: float, x_i: Array, dt: float, params: GridParams,
    drift: Optional[Array] = None, cache: Optional[LevelCache] = None,
) -> Tuple[LevelGrid, Optional[Array]]:
    """Build the level grid for one interval at state ``x_i``.

    Per control dimension a uniform grid covers the admissible range (the
    control bounds, shrunk where a one-step state prediction would leave the
    state box).  The multidimensional grid is the Cartesian product with
    per-dimension counts coarsened uniformly so the total stays within
    ``params.cap``; when state bounds are present, product vectors whose
    joint one-step prediction leaves the box are dropped (for control-affine
    problems, by the separable bound of ``_affine_in_box``).  Rows come back
    sorted lexicographically, in a read-only array that the grid shares:
    the column-major product itself when every level is kept, a row-major
    copy (``levels[keep]``) otherwise.
    Without state bounds the grid is the cache's shared ``box_grid``; so is
    it for a control-affine problem where the separable bound clears every
    state coordinate over the whole control box (``_box_steps_inside``),
    since the search then keeps every range whole and the filter every
    level.  ``drift`` is the control-affine drift at (t, x_i) when the
    caller has it already; it is evaluated here otherwise.  The grid's
    ``lo`` and ``hi`` are the ranges it spans: the control bounds for
    ``box_grid``; the searched ranges otherwise, for a problem with a
    ``hamiltonian_argmin`` (the one reader of them), and None for one
    without, so a memo keeps no ranges that nothing reads.

    ``cache`` (see ``LevelCache``) holds the level work that this build
    reuses and then replaces; a fresh one is built when none is given, and
    one built for another problem (by identity) or other ``params`` (by
    equality) raises ``ValueError``.  Each build starts from the one before
    it: a range whose ends did not move keeps its scalar grid, and the
    product is written into the cache's buffer, only the changed columns
    (``_product_levels``).  When the cache's memo holds this interval
    ``(t, dt)`` from ``x_i``, bit for bit, the range search, the scalar
    grids and the box test are skipped and the same levels are written
    again; a miss replaces the entry, and a failed build leaves none.  The
    result is bit for bit the fresh build's, but a grid is valid only until
    the next build with the same cache, which may write over its levels; a
    batch hook gets them read-only, valid only during the call.

    Also returns the dynamics rows at the kept levels when the problem has
    state bounds and no control-affine hooks (the filter evaluated them, so
    the propagation loop skips a second sweep), None otherwise: the loop
    sweeps a control-affine Hamiltonian in factored form.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if cache is None:
        cache = LevelCache(problem, params)
    elif cache.problem is not problem or cache.params != params:
        raise ValueError("the LevelCache was built for another problem or other GridParams")
    if not problem.has_state_bounds:
        return cache.box_grid, None
    x_i = np.asarray(x_i, dtype=float)
    state = x_i.tobytes()
    memo = cache.memo
    entry = None if memo is None else memo.pop((t, dt), None)
    hit = entry is not None and entry[0] == state
    lo = hi = values = sizes = keep = f = None
    if hit:
        _, lo, hi, values, sizes, keep = entry
    else:
        if drift is None and problem.drift is not None:
            drift = eval_drift(problem, t, x_i)
        if drift is None or not _box_steps_inside(problem, x_i, dt, drift, cache.terms):
            dims = range(problem.control_dim)
            lo, hi = _search_ranges(problem, t, x_i, dt, dims, drift, cache.terms)
            values, sizes = _grid_values(problem.gated_dims, lo, hi, cache.counts, cache)
            if problem.hamiltonian_argmin is None:
                lo = hi = None
            else:
                lo.setflags(write=False)
                hi.setflags(write=False)
    if values is None:
        grid = cache.box_grid
    else:
        levels = _product_levels(values, sizes, cache)
        if not hit:
            if drift is None:
                f = eval_dynamics_batch(problem, t, x_i, levels)
                keep = _in_box(problem, x_i + dt * f)
            else:
                keep = _affine_in_box(problem, x_i, dt, drift, levels, values, sizes)
            if not np.any(keep):
                raise InfeasibleLevels(
                    f"no product level satisfies the one-step state bounds at t={t}"
                )
            keep = None if np.all(keep) else keep
        elif problem.drift is None:
            # the rows of the whole product, as on the first build: a batch
            # evaluator need not give a row the same bits in a smaller batch
            f = eval_dynamics_batch(problem, t, x_i, levels)
        if keep is not None:
            levels, f = levels[keep], None if f is None else f[keep]
            levels.setflags(write=False)
        grid = LevelGrid(levels, lo, hi)
    if memo is not None:
        memo[(t, dt)] = (state, lo, hi, values, sizes, keep)
    return grid, f
