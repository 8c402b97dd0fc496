"""Chattering level grids, the per-interval measure LP, and the duty-cycle
schedule.

On each time interval the control set is discretized into a finite set of
*levels* (constant control vectors).  A *chattering measure* assigns each
level a time share on the interval; rapidly switching between levels with
those duty cycles emulates, in time average, any control in the levels'
convex hull.  Minimizing the interval Hamiltonian over measures is a linear
program on the probability simplex whose optimum is analytic: put all weight
on the level(s) with the smallest Hamiltonian value.

Everything here is a pure function of its inputs, apart from the level
memo and the previous build that a caller may hand the level generator to
fill; grids are read-only, and immutable unless they share the product
buffer of such a previous build (see ``LevelBuild``).
"""

from __future__ import annotations

import functools
import math
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
#: or None when every level is kept)``, with no grids, sizes or mask where
#: the shared whole-box grid was returned; never levels or dynamics rows,
#: whose size would grow the peak memory by megabytes
LevelMemo = Dict[
    Tuple[float, float],
    Tuple[bytes, Optional[Array], Optional[Tuple[int, ...]], Optional[np.ndarray]],
]


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
    does so with a ``LevelBuild``'s column-major product buffer, so a grid
    built with one is valid only until that ``LevelBuild``'s next build.
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
    lo, hi = _search_ranges(problem, t, x, dt, dims, drift)
    return [(float(lo[d]), float(hi[d])) for d in dims]


def _search_ranges(
    problem: ControlProblem, t: float, x: Array, dt: float, dims: Sequence[int], drift: Optional[Array]
) -> Tuple[Array, Array]:
    """``level_bound_search`` with state bounds, as the lower and the upper
    ends of every control dimension (its control bounds where it is not in
    ``dims``); ``drift`` is None without the hooks.

    With the hooks no probe batch is built: moving control d from the
    anchor to v moves the next state from ``base = x + dt * (drift + anchor
    @ B)``, computed once per anchor, by ``dt * (v - anchor_d) * B[d]``.
    Without them every probe row goes through ``eval_dynamics_batch``.
    """
    lower, upper = problem.control_lower, problem.control_upper
    B = problem.control_matrix
    lo_out, hi_out = np.array(lower), np.array(upper)
    pending = np.asarray(dims, dtype=np.intp)

    def step(probe: Array) -> Array:
        return x + dt * eval_dynamics_batch(problem, t, x, probe)

    def next_states(anchor: Array, base: Optional[Array], cols: Array, v: Array) -> Array:
        """The next states with control ``cols[r]`` at ``v[r]``, the others
        at ``anchor``."""
        if base is not None:
            return base + dt * ((v - anchor[cols])[:, None] * B[cols])
        probe = np.tile(anchor, (cols.size, 1))
        probe[np.arange(cols.size), cols] = v
        return step(probe)

    for anchor in (0.5 * (lower + upper), lower, upper):
        if pending.size == 0:
            break
        base = None if drift is None else x + dt * (drift + anchor @ B)
        lo, hi, mid = lower[pending], upper[pending], 0.5 * (lower[pending] + upper[pending])
        # both ends of every pending dimension in one batch, interleaved lo/hi
        ends = next_states(anchor, base, np.repeat(pending, 2), np.stack([lo, hi], axis=1).ravel())
        ends_ok = _in_box(problem, ends).reshape(-1, 2)
        lo_ok, hi_ok = ends_ok[:, 0], ends_ok[:, 1]
        found = lo_ok | hi_ok
        # the next state at each dimension's start point
        x_start = np.where(lo_ok[:, None], ends[0::2], ends[1::2])
        both_bad = ~found
        if np.any(both_bad):
            mids = next_states(anchor, base, pending[both_bad], mid[both_bad])
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
    return lo_out, hi_out


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
    """Where each grid starts in the concatenated grids, and the dimension
    of every concatenated value (``np.repeat(arange, sizes)``), read-only;
    cached because interval after interval reuses the same sizes."""
    starts = np.cumsum((0,) + sizes[:-1])
    dims = np.repeat(np.arange(len(sizes)), sizes)
    starts.setflags(write=False)
    dims.setflags(write=False)
    return starts, dims


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
    ``sizes`` values each), for control-affine dynamics.  The coordinates
    that ``_open_coords`` clears get no row test; the rest are tested on
    every row as the rows compute, so the mask is exact."""
    B = problem.control_matrix
    starts, dims = _segments(sizes)
    terms = values[:, None] * B[dims]
    open_ = _open_coords(
        problem, x_i, dt, drift, np.minimum.reduceat(terms, starts).sum(axis=0),
        np.maximum.reduceat(terms, starts).sum(axis=0),
        np.maximum.reduceat(np.abs(terms), starts).sum(axis=0),
    )
    if not open_.any():
        return np.ones(levels.shape[0], dtype=bool)
    return _in_box(problem, x_i[open_] + dt * (drift + levels @ B)[:, open_], open_)


@functools.lru_cache(maxsize=16)
def _box_sums(lower: bytes, upper: bytes, matrix: bytes) -> Array:
    """``_open_coords``'s ``low``, ``high`` and ``largest`` over the whole
    control box (control j takes the values of its bounds) as the rows of
    a read-only array, for the control bounds and control matrix given as
    float64 bytes; cached because they depend on the problem alone."""
    lo, hi = np.frombuffer(lower), np.frombuffer(upper)
    B = np.frombuffer(matrix).reshape(lo.size, -1)
    at_lower, at_upper = lo[:, None] * B, hi[:, None] * B
    ends = (np.minimum(at_lower, at_upper), np.maximum(at_lower, at_upper),
            np.maximum(np.abs(at_lower), np.abs(at_upper)))
    sums = np.stack([e.sum(axis=0) for e in ends])
    sums.setflags(write=False)
    return sums


def _box_steps_inside(problem: ControlProblem, x_i: Array, dt: float, drift: Array) -> bool:
    """Whether ``_open_coords`` clears every state coordinate over the whole
    control box (each control's values spanning its bounds).  Every grid
    value lies within the bounds and rounding is monotone, so the box filter
    then keeps every level, and the range search, whose probes stay inside
    the box, keeps every range whole: the level grid is the unbounded one."""
    sums = _box_sums(*problem.control_key[:2], problem.control_matrix.tobytes())
    return not _open_coords(problem, x_i, dt, drift, *sums).any()


class LevelBuild:
    """The level work of the last build with state bounds in one
    propagation, which the next build starts from: ``lo`` and ``hi``, the
    searched range ends, with ``grids``, the scalar grid of each control
    dimension over them; and ``values`` and ``sizes``, the last
    concatenated grids and their sizes, with ``levels``, the buffer that
    holds their whole product before the box filter.  Empty (all None)
    until the first build.  One serves one problem and one ``GridParams``.

    The build owns ``levels``: a column-major ``(K, m)`` array, read-only
    to everyone else, that each build with this ``LevelBuild`` writes over
    in place (``_product_levels``).  A grid or a batch-hook block that
    shares it is valid only until the next such build."""

    __slots__ = ("lo", "hi", "grids", "values", "sizes", "levels")

    def __init__(self):
        self.lo = self.hi = self.grids = self.values = self.sizes = self.levels = None


def _grid_values(
    gated_dims: Optional[Mapping[int, Tuple[float, float]]],
    lo: Array,
    hi: Array,
    counts: Array,
    previous: Optional[LevelBuild] = None,
) -> Tuple[Array, Tuple[int, ...]]:
    """The per-dimension grids from ``lo`` to ``hi`` with ``counts``
    points, concatenated, and their sizes.  A dimension whose range ends
    equal ``previous``'s bit for bit keeps its grid; ``previous`` then
    takes these ranges and grids."""
    gated_dims = gated_dims or {}
    lo_list, hi_list = lo.tolist(), hi.tolist()
    if previous is None or previous.grids is None:
        grids = [None] * len(lo_list)
        redo = range(len(lo_list))
    else:
        grids = list(previous.grids)
        moved = (lo.view(np.int64) != previous.lo.view(np.int64)) | (
            hi.view(np.int64) != previous.hi.view(np.int64)
        )
        redo = np.flatnonzero(moved).tolist()
    for j in redo:
        grids[j] = _scalar_grid(gated_dims.get(j), j, lo_list[j], hi_list[j], int(counts[j]))
    if previous is not None:
        previous.lo, previous.hi, previous.grids = lo, hi, grids
    return np.concatenate(grids), tuple(g.size for g in grids)


def _product_levels(values: Array, sizes: Tuple[int, ...], previous: Optional[LevelBuild] = None) -> Array:
    """The lexicographic Cartesian product of the grids that ``_grid_values``
    returned, as a read-only column-major ``(K, m)`` array (dimension count
    is not limited the way np.meshgrid is), written one column at a time:
    column j runs through grid j in blocks of ``prod(sizes[j + 1:])`` equal
    rows.

    With ``previous`` the product is written into its buffer in place: only
    the columns whose grids differ from ``previous.values`` bit for bit, or
    every column when the sizes changed; a new buffer is allocated only
    when K changes.  ``previous`` then holds these grids and the buffer.
    Without it every call writes a new array."""
    K, m = math.prod(sizes), len(sizes)
    starts = _segments(sizes)[0]
    levels = None if previous is None else previous.levels
    if levels is None or levels.shape[0] != K:
        levels, changed = np.empty((K, m), order="F"), range(m)
    elif previous.sizes != sizes:
        changed = range(m)
    else:
        differs = values.view(np.int64) != previous.values.view(np.int64)
        changed = np.flatnonzero(np.logical_or.reduceat(differs, starts)).tolist()
    levels.setflags(write=True)
    for j in changed:
        blocks = levels[:, j].reshape(-1, sizes[j], math.prod(sizes[j + 1:]))
        blocks[...] = values[starts[j]:starts[j] + sizes[j], None]
    levels.setflags(write=False)
    if previous is not None:
        previous.values, previous.sizes, previous.levels = values, sizes, levels
    return levels


@functools.lru_cache(maxsize=16)
def _unbounded_grid(control_key: tuple, params: GridParams) -> LevelGrid:
    """The level grid of every interval of a problem without state bounds,
    whose ranges are the control bounds, and of every interval where the
    whole control box steps inside the state box; ``control_key`` is the
    problem's (see ``ControlProblem.control_key``)."""
    lower, upper, gates = control_key
    lo, hi = np.frombuffer(lower), np.frombuffer(upper)
    counts = _counts_for_widths((hi - lo).tobytes(), params.k_per_dim, params.cap)
    gated_dims = {dim: (g_lo, g_hi) for dim, g_lo, g_hi in gates}
    values, sizes = _grid_values(gated_dims, lo, hi, counts)
    return LevelGrid(_product_levels(values, sizes))


def generate_levels_with_dynamics(
    problem: ControlProblem, t: float, x_i: Array, dt: float, params: GridParams,
    drift: Optional[Array] = None, memo: Optional[LevelMemo] = None,
    previous: Optional[LevelBuild] = None,
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
    Without state bounds the grid is built once per distinct control bounds,
    gated dimensions and ``params``, and shared read-only; so is it for a
    control-affine problem where the separable bound clears every state
    coordinate over the whole control box (``_box_steps_inside``), since
    the search then keeps every range whole and the filter every level.
    ``drift`` is the control-affine drift at (t, x_i) when the caller has it
    already; it is evaluated here otherwise.

    ``memo`` (see ``LevelMemo``) keeps, per interval ``(t, dt)``, the state
    and the scalar grids and keep mask built there (no grids when the
    shared grid was returned).  When ``x_i`` equals that state bit for bit,
    the range search, the scalar grids and the box test are skipped and the
    same levels are written again; a miss replaces the entry, and a failed
    build leaves none.  The memo keeps no levels.  One memo serves one
    problem and one ``params``.

    ``previous`` (see ``LevelBuild``) is the build of the interval before,
    which this one starts from and then replaces: a range whose ends did not
    move keeps its scalar grid, and the product is written into the buffer
    that ``previous`` owns, only the changed columns (``_product_levels``).
    The result is bit for bit the fresh build's, but a grid returned by a
    build handed ``previous`` is valid only until the next build handed the
    same ``previous``, which may write over its levels; a batch hook gets
    them read-only, valid only during the call.  Without ``previous``
    everything is built afresh.

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
    hit = entry is not None and entry[0] == state
    values = sizes = keep = f = None
    if hit:
        _, values, sizes, keep = entry
    else:
        if drift is None and problem.drift is not None:
            drift = eval_drift(problem, t, x_i)
        if drift is None or not _box_steps_inside(problem, x_i, dt, drift):
            lo, hi = _search_ranges(problem, t, x_i, dt, range(problem.control_dim), drift)
            counts = _coarsen_counts(problem, params.k_per_dim, params.cap)
            values, sizes = _grid_values(problem.gated_dims, lo, hi, counts, previous)
    if values is None:
        grid = _unbounded_grid(problem.control_key, params)
    else:
        levels = _product_levels(values, sizes, previous)
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
        grid = LevelGrid(levels)
    if memo is not None:
        memo[(t, dt)] = (state, values, sizes, keep)
    return grid, f
