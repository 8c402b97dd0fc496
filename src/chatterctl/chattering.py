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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import Array, ControlProblem, _check_count
from .model import eval_dynamics_batch  # noqa: F401  unused; perfbench/tracer.py wraps this name

#: all ties within this absolute distance of the minimum share weight
TIE_TOL = 1e-9
#: a level is admissible if one explicit Euler step stays inside the state
#: box within this absolute slack
STEP_FEASIBILITY_TOL = 1e-9
#: the level range search ends each infeasible side at a point of the grid
#: that splits its search into 2**BOUND_SEARCH_ITERATIONS equal steps
BOUND_SEARCH_ITERATIONS = 32


class InfeasibleLevels(RuntimeError):
    """No control level keeps the one-step state prediction inside the state
    box; the state bounds and step size are incompatible at this state."""


class EmptyGrid(ValueError):
    """The measure LP was handed zero levels."""


@dataclass(frozen=True)
class GridParams:
    """Level generation knobs: requested points per control dimension and the
    hard cap on the total level count."""

    k_per_dim: int = 101
    cap: int = 4096

    def __post_init__(self):
        _check_count("k_per_dim", self.k_per_dim, 2)
        _check_count("cap", self.cap, 1)


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
    required: the ranges in which ``ControlProblem.hamiltonian_argmin``
    prices (see ``generate_levels_with_dynamics``).
    """

    levels: Array
    lo: Array
    hi: Array

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
    interval start).  The last segment of interval i ends at ``times[i +
    1]``, where interval i + 1 starts, so the segments tile the run.
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
    ends[offsets[1:] - 1] = times[1:]
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
    all_ = np.logical_and.reduce  # skips np.all's Python-level wrapper
    if problem.state_lower is not None:
        ok &= all_(x_next >= problem.state_lower[coords] - STEP_FEASIBILITY_TOL, axis=1)
    if problem.state_upper is not None:
        ok &= all_(x_next <= problem.state_upper[coords] + STEP_FEASIBILITY_TOL, axis=1)
    return ok


class _SearchTerms(NamedTuple):
    """What the range search needs of a problem with state bounds alone,
    built once per ``LevelCache`` (see ``_search_terms``).  The probe points
    of a control dimension, which are also the start points an infeasible
    end is searched from, are its lower end, upper end and midpoint; the
    anchors are the midpoint, the lower and the upper corner of the control
    box."""

    #: ``(3, m)``: the probe points, lower end, upper end, midpoint
    points: Array
    #: ``(3, m, 2)``: ``sign(b - a)`` for start point a, dimension, and the
    #: end b searched for (lower, upper)
    signs: Array
    #: ``(3, m, 2)``: the search grid's step ``|b - a| * 2**-BOUND_SEARCH_ITERATIONS``
    brackets: Array
    #: ``(3, n)``: ``anchor @ B`` of each anchor
    anchor_steps: Array
    #: ``(n, 3, 3, m)``: ``(v - anchor_d) * B[d]`` for anchor, probe point
    #: v and dimension d, state coordinate first
    shifts: Array


def _search_terms(problem: ControlProblem) -> _SearchTerms:
    """The ``_SearchTerms`` of a problem with state bounds, as read-only
    arrays."""
    lo, hi, B = problem.control_lower, problem.control_upper, problem.control_matrix
    points = np.stack([lo, hi, 0.5 * (lo + hi)])
    anchors = np.stack([points[2], lo, hi])
    gaps = np.stack([np.stack([lo - a, hi - a], axis=1) for a in points])
    terms = _SearchTerms(
        points, np.sign(gaps), np.abs(gaps) * 2.0 ** -BOUND_SEARCH_ITERATIONS,
        np.stack([a @ B for a in anchors]),
        np.stack([(points - a)[:, :, None] * B for a in anchors]).transpose(3, 0, 1, 2).copy(),
    )
    for a in terms:
        a.setflags(write=False)
    return terms


def _search_ranges(
    problem: ControlProblem, t: float, x: Array, dt: float, drift: Array, terms: _SearchTerms
) -> Tuple[Array, Array]:
    """The admissible range of every control dimension of a problem with
    state bounds, as its lower and upper ends: the largest subinterval of
    its control bounds whose ends keep one explicit Euler step inside the
    state box; ``drift`` is the drift at (t, x), and ``terms`` the
    problem's ``_SearchTerms``.  The other dimensions are held at an
    anchor, the midpoint, then the lower, then the upper corner of the
    control box, so a dimension's range depends on it alone.  It is found
    at the first anchor where its lower end, upper end or midpoint (its
    start point, in that order) is feasible; ``InfeasibleLevels`` names
    every dimension found at none.  The probe states of every anchor,
    probe point and dimension are one ``(3, 3, m)`` block with one
    ``_in_box`` and no dynamics call: moving control d from an anchor to v
    moves the next state from ``x + dt * (drift + anchor @ B)`` by ``dt *
    (v - anchor_d) * B[d]``, so the block is built coordinate first, and
    its test reduces over long contiguous rows.

    Each (dimension, infeasible end) then searches from its start point a
    toward the infeasible end b, at its own anchor, assuming the violation
    is monotone toward b.  Moving a distance w toward b moves the next
    state along ``+-dt * B[d]``, so the distance at which the first state
    bound binds is one division per state coordinate (zero rates bind
    nothing).  The end returned is the last point of the grid ``a + k (b -
    a) 2**-BOUND_SEARCH_ITERATIONS`` within that distance (b itself
    excluded), so it stays inside the bound by less than one step of that
    grid, as a bisection's would.  The margin matters: an end exactly on a
    bound can round outside it once several dimensions move together in
    the product filter, which drops a level that a bisection keeps.
    """
    m, n = problem.control_dim, problem.state_dim
    cols = np.arange(m)
    probes = (x + dt * (drift + terms.anchor_steps)).T[:, :, None, None] + dt * terms.shifts
    ok = _in_box(problem, probes.reshape(n, -1).T).reshape(3, 3, m)
    found = np.logical_or.reduce(ok, axis=1)
    anchor = found.argmax(axis=0)
    missing = (~found[anchor, cols]).nonzero()[0]
    if missing.size:
        raise InfeasibleLevels(
            f"no admissible control level found for dimension(s) {missing.tolist()} "
            f"at t={t}: state bounds and step size are incompatible here"
        )
    ok = ok[anchor, :, cols]
    start = ok.argmax(axis=1)  # the lower end, else the upper end, else the midpoint
    lo, hi = problem.control_lower.copy(), problem.control_upper.copy()
    # one search row per (dimension, infeasible end), lower end first
    which, side = (~ok[:, :2]).nonzero()
    if which.size == 0:
        return lo, hi
    begin = start[which]
    x_start = probes[:, anchor[which], begin, which].T
    sign = terms.signs[begin, which, side]
    rate = sign[:, None] * (dt * problem.control_matrix[which])
    # where a search starts, the slack at x_start is >= 0: it passed the
    # same comparison in _in_box
    slack = np.full((2,) + x_start.shape, np.inf)
    if problem.state_lower is not None:
        slack[0] = x_start - (problem.state_lower - STEP_FEASIBILITY_TOL)
    if problem.state_upper is not None:
        slack[1] = (problem.state_upper + STEP_FEASIBILITY_TOL) - x_start
    reach = np.divide(
        np.where(rate < 0.0, slack[0], slack[1]), np.abs(rate),
        out=np.full(rate.shape, np.inf), where=rate != 0.0,
    )
    bracket = terms.brackets[begin, which, side]
    # b itself is infeasible and never a grid point
    steps = np.minimum(np.floor(reach.min(axis=1) / bracket), 2.0**BOUND_SEARCH_ITERATIONS - 1)
    ends = terms.points[begin, which] + sign * (steps * bracket)
    lower = side == 0
    lo[which[lower]] = ends[lower]
    hi[which[~lower]] = ends[~lower]
    return lo, hi


def _uniform_grid(lo: float, hi: float, count: int) -> List[float]:
    # np.linspace semantics with exact endpoints, in Python floats: the
    # IEEE operations of lo + step * np.arange(count), the last value hi
    if count == 1 or lo == hi:
        return [lo]
    if count == 2:
        return [lo, hi]
    step = (hi - lo) / (count - 1)
    vals = [lo + step * k for k in range(count - 1)]
    vals.append(hi)
    return vals


def _dedupe_sorted(vals: List[float]) -> List[float]:
    # each value kept when it exceeds the one before it (0.0 and -0.0 tie)
    return vals[:1] + [b for a, b in zip(vals, vals[1:]) if b > a]


def _scalar_grid(
    gated: Optional[Tuple[float, float]], dim: int, c_lo: float, c_hi: float, count: int
) -> List[float]:
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
    # the active grid ascends, so only a zero placed before it can be out of order
    if len(values) > 1 and values[0] > values[1]:
        values.sort()
    return _dedupe_sorted(values)


def _same_bits(a: List[float], b: Optional[List[float]]) -> bool:
    # == alone equates 0.0 and -0.0; the signs tell them apart
    return a == b and [math.copysign(1.0, v) for v in a] == [math.copysign(1.0, v) for v in b]


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
    problem: ControlProblem, x_i: Array, dt: float, drift: Array, levels: Array,
    grids: Sequence[List[float]],
) -> Optional[np.ndarray]:
    """``_in_box`` of the next states ``x_i + dt * (drift + levels @ B)`` of
    the product of the scalar ``grids``, or None when the separable bound
    keeps every level.  The bound takes each
    grid's first and last value: ``v * B[j, i]`` is monotone in v, rounding
    included, so over grid j its least, its greatest and its largest
    magnitude are taken at the two ends.  The coordinates that
    ``_open_coords`` clears get no row test; the rest are tested on every
    row as the rows compute, so the mask is exact."""
    B = problem.control_matrix
    at_first = np.array([g[0] for g in grids])[:, None] * B
    at_last = np.array([g[-1] for g in grids])[:, None] * B
    open_ = _open_coords(
        problem, x_i, dt, drift, np.minimum(at_first, at_last).sum(axis=0),
        np.maximum(at_first, at_last).sum(axis=0),
        np.maximum(np.abs(at_first), np.abs(at_last)).sum(axis=0),
    )
    if not open_.any():
        return None
    return _in_box(problem, x_i[open_] + dt * (drift + levels @ B)[:, open_], open_)


def _write_columns(levels: Array, grids: Sequence[List[float]], cols: Sequence[int]) -> None:
    """Writes columns ``cols`` of the lexicographic Cartesian product of
    ``grids`` into the column-major ``(K, m)`` array ``levels``: column j
    runs through grid j in blocks of ``prod(sizes[j + 1:])`` equal rows.
    The write follows the column's shape: a one-value grid fills it; a
    column that repeats a pattern of at most 4 rows gets one strided fill
    per pattern row; any other gets its values broadcast over its blocks
    (numpy's per-call cost, not the 4096 stores, sets the time here)."""
    sizes = [len(g) for g in grids]
    for j in cols:
        grid, column = grids[j], levels[:, j]
        size = sizes[j]
        if size == 1:
            column.fill(grid[0])
            continue
        inner = math.prod(sizes[j + 1:])
        period = size * inner
        if period <= 4:
            for r in range(period):
                column[r::period] = grid[r // inner]
        else:
            column.reshape(-1, size, inner)[...] = np.array(grid)[:, None]


class LevelCache:
    """What level generation reuses for one problem and one ``GridParams``;
    ``propagate_forward`` refuses it for any other.

    Computed from the problem's arrays when the cache is built: ``counts``,
    the level count of each control dimension (``_coarsen_counts``), and
    ``terms``, the ``_SearchTerms`` of a problem with state bounds (None
    otherwise).  Built on first use: ``box_grid``, the grid over the whole
    control box, which is the grid of every interval of a problem without
    state bounds.

    Kept from the searched build before, which the next one starts from
    (``_product``): ``lo`` and ``hi``, its range ends, ``grids``, the scalar
    grid of each control dimension over them in Python floats, and
    ``levels``, the buffer that holds their whole product before the box
    filter; all None until the first such build.  The cache owns
    ``levels``: a column-major ``(K, m)`` array, read-only to everyone
    else, that each searched build writes over in place, so a grid or a
    batch-hook block that shares it is valid only until the next build
    with this cache.

    ``memo`` is None, or a dict that keeps per interval ``(t, dt)`` the
    start state's bytes, the searched range ends and the keep mask (None
    when every level is kept) of the last build there; never levels, whose
    size would grow the peak memory by megabytes.
    ``solve`` gives its cache one, because its propagations start intervals
    again from the same states; a lone propagation never does.
    """

    def __init__(self, problem: ControlProblem, params: GridParams):
        self.problem, self.params = problem, params
        self.counts = _coarsen_counts(problem, params.k_per_dim, params.cap)
        self.terms = _search_terms(problem) if problem.has_state_bounds else None
        self.lo = self.hi = self.grids = self.levels = None
        self.memo: Optional[Dict[Tuple[float, float], tuple]] = None

    @functools.cached_property
    def box_grid(self) -> LevelGrid:
        lo, hi = self.problem.control_lower, self.problem.control_upper
        return LevelGrid(_product(self.problem, lo, hi, self.counts), lo, hi)


def _product(
    problem: ControlProblem, lo: Array, hi: Array, counts: Array, cache: Optional[LevelCache] = None
) -> Array:
    """The lexicographic Cartesian product of the scalar grids from ``lo``
    to ``hi`` with ``counts`` points, as a read-only column-major ``(K,
    m)`` array (the dimension count is not limited the way np.meshgrid
    is).  Without ``cache`` it is a new array.  With one it is written in
    place into the cache's buffer, which then holds it: only the dimensions
    whose range ends differ from the cache's bit for bit get a new grid,
    and only the columns whose grid changed bit for bit are written (every
    column when a grid size changed); a new buffer is allocated only when K
    changes."""
    m = len(counts)
    if cache is None or cache.grids is None:
        grids, levels, moved = [None] * m, None, range(m)
    else:
        grids, levels = list(cache.grids), cache.levels
        moved = ((lo.view(np.int64) != cache.lo.view(np.int64))
                 | (hi.view(np.int64) != cache.hi.view(np.int64))).nonzero()[0].tolist()
    gated_dims = problem.gated_dims
    lo_list, hi_list, count_list = lo.tolist(), hi.tolist(), counts.tolist()
    changed, resized = [], False
    for j in moved:
        grid = _scalar_grid(gated_dims.get(j), j, lo_list[j], hi_list[j], count_list[j])
        if not _same_bits(grid, grids[j]):
            resized |= grids[j] is None or len(grid) != len(grids[j])
            grids[j] = grid
            changed.append(j)
    if resized:
        changed, K = range(m), math.prod(len(g) for g in grids)
        if levels is None or levels.shape[0] != K:
            levels = np.empty((K, m), order="F")
    levels.setflags(write=True)
    _write_columns(levels, grids, changed)
    levels.setflags(write=False)
    if cache is not None:
        cache.lo, cache.hi, cache.grids, cache.levels = lo, hi, grids, levels
    return levels


def generate_levels_with_dynamics(
    cache: LevelCache, t: float, x_i: Array, dt: float, drift: Array
) -> Tuple[LevelGrid, None]:
    """Build the level grid of ``cache.problem`` for one interval at the
    float state ``x_i``, where the drift is ``drift``.

    Per control dimension a uniform grid covers the admissible range (the
    control bounds, shrunk where a one-step state prediction would leave the
    state box).  The multidimensional grid is the Cartesian product with
    per-dimension counts coarsened uniformly so the total stays within
    ``cache.params.cap``; when state bounds are present, product vectors
    whose joint one-step prediction leaves the box are dropped (by the
    separable bound of ``_affine_in_box``).  Rows come back sorted
    lexicographically, in a read-only array that the grid shares:
    the column-major product itself when every level is kept, a row-major
    copy (``levels[keep]``) otherwise.
    Without state bounds the grid is the cache's shared ``box_grid``.
    The grid's ``lo`` and ``hi`` are the ranges it spans: the control
    bounds for ``box_grid``, the searched ranges otherwise.

    ``cache`` (see ``LevelCache``) holds the level work that this build
    reuses and then replaces.  Each searched build starts from the
    one before it: a range whose ends did not move keeps its scalar grid,
    and the product is written into the cache's buffer, only the changed
    columns (``_product``).  When the cache's memo holds this
    interval ``(t, dt)`` from ``x_i``, bit for bit, the range search and
    the box test are skipped and the entry's ranges are built again; a miss
    replaces the entry, and a failed build leaves none.  The result is bit
    for bit the fresh build's, but a grid is valid only until the next
    build with the same cache, which may write over its levels; a batch
    hook gets them read-only, valid only during the call.

    Returns the grid and None, a pair that callers and benchmark tracers
    unpack: no dynamics rows are built, since the propagation loop sweeps
    the Hamiltonian in factored form.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    problem = cache.problem
    if not problem.has_state_bounds:
        return cache.box_grid, None
    state = x_i.tobytes()
    memo = cache.memo
    entry = None if memo is None else memo.pop((t, dt), None)
    hit = entry is not None and entry[0] == state
    if hit:
        _, lo, hi, keep = entry
    else:
        lo, hi = _search_ranges(problem, t, x_i, dt, drift, cache.terms)
        lo.setflags(write=False)
        hi.setflags(write=False)
    levels = _product(problem, lo, hi, cache.counts, cache)
    if not hit:
        keep = _affine_in_box(problem, x_i, dt, drift, levels, cache.grids)
        if keep is not None:
            if not keep.any():
                raise InfeasibleLevels(
                    f"no product level satisfies the one-step state bounds at t={t}"
                )
            keep = None if keep.all() else keep
    if keep is not None:
        levels = levels[keep]
        levels.setflags(write=False)
    if memo is not None:
        memo[(t, dt)] = (state, lo, hi, keep)
    return LevelGrid(levels, lo, hi), None
