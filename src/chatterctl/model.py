"""Problem definition and Hamiltonian evaluations.

A :class:`ControlProblem` bundles the running cost ``g(t, x, u)``, the
control-affine dynamics ``f(t, x, u) = drift(t, x) + u @ B``, an optional
terminal cost ``psi(x)`` with its derivatives, and box bounds on controls
and states.  The control Hamiltonian

    H(t, x, p, u) = g(t, x, u) + p . f(t, x, u)

is the single quantity every downstream stage (level generation, the
per-interval measure LP, state/costate stepping, shooting) evaluates, so all
of those evaluations live here.  ``g`` and ``f`` are evaluated on blocks of
control levels only, and :func:`_checked` checks every hook's output.

Evaluators must be deterministic functions of their arguments; the solver is
free to call them in any order and any number of times.  All operations in
this module are pure, so a problem instance may be shared across concurrent
solver runs as long as its evaluators are reentrant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

Array = np.ndarray


class NonFiniteEvaluation(RuntimeError):
    """A problem evaluator produced NaN or Inf; the problem is ill-posed at
    this point."""


def _as_floats(value, hook: str, t: Optional[float] = None) -> Array:
    """A hook's output as a float array.  Output that is not an array of
    numbers (a string, a mapping, a ragged nesting) raises ``ValueError``
    naming the hook (and ``t`` for the hooks that take one)."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        where = "" if t is None else f" at t={t}"
        raise ValueError(f"{hook} returned a value that is not an array of numbers{where}") from err


#: the most values that ``_all_finite`` tests as Python floats: numpy's
#: per-call cost outweighs a scalar loop up to about this many (on a 2-vCPU
#: VM 32 values read alike both ways, 48 already favour the array pass)
_FEW_VALUES = 32


def _all_finite(a: Array) -> bool:
    """Whether every value of the float array ``a`` is finite: a handful
    (at most ``_FEW_VALUES``) tested as Python floats, anything larger by
    one array pass, with the same answer either way."""
    if a.size <= _FEW_VALUES:
        return all(map(math.isfinite, a.ravel().tolist()))
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def _checked(value, shape: Tuple[int, ...], hook: str, t: Optional[float] = None) -> Array:
    """A hook's output as a float array of ``shape``.  Output that is not an
    array of numbers or has a wrong shape raises ``ValueError`` and a NaN or
    inf ``NonFiniteEvaluation``, each naming the hook (and ``t`` for the
    hooks that take one)."""
    arr = _as_floats(value, hook, t)
    if arr.shape != shape:
        raise ValueError(f"{hook} returned shape {arr.shape}, expected {shape}")
    if not _all_finite(arr):
        where = "" if t is None else f" at t={t}"
        raise NonFiniteEvaluation(f"{hook} returned a non-finite value{where}")
    return arr


def _check_count(name: str, value, minimum: int, error: type = ValueError) -> None:
    """Refuses, by ``name`` and with ``error``, a count that is not an
    integer (bool included; numpy integers pass) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def _readonly(a, dtype=float) -> Array:
    """A read-only copy of ``a``, as a view of a private read-only owner:
    numpy refuses to turn writing back on for a view whose base is
    read-only, so a caller cannot change the array through it after it was
    checked."""
    owner = np.array(a, dtype=dtype)
    owner.setflags(write=False)
    return owner.view()


@dataclass(frozen=True)
class ControlProblem:
    """A continuous-time optimal control problem on a fixed horizon.

    The running cost comes in one form, required:
    ``running_cost_batch(t, x, U)`` over a ``(K, m)`` block of controls
    (shape ``(K,)``), since the solver evaluates blocks of up to
    ``GridParams.cap`` levels, with its state gradient
    ``running_cost_state_gradient(t, x, U)`` (shape ``(K, n)``): dH/dx is
    assembled from it and ``drift_jacobian``.  The terminal cost
    ``terminal_cost`` psi(x), its ``terminal_gradient`` (n,) and its
    ``terminal_hessian`` (n, n) of a 1-d float array come together or not
    at all: shooting differences none.

    ``gated_dims`` marks control dimensions that are either exactly zero
    (off) or confined to an active range ``[low, high]``; level generation
    lays out ``{0} + grid(low, high)`` for them instead of a plain uniform
    grid.  It is kept as a read-only mapping (empty when none is given), so
    its ranges stay the ones that were checked.

    The dynamics come in one form, and all three of its parts are
    required: ``drift``, ``control_matrix`` and ``drift_jacobian`` describe
    control-affine dynamics ``f(t, x, u) = drift(t, x) + u @ control_matrix``
    with a constant ``(m, n)`` control matrix and the ``(n, n)`` Jacobian
    ``d drift_i / d x_j``.  So a block of dynamics rows costs one drift
    evaluation and one product, level ranges come in closed form, and the
    shooting tangent is analytic.

    ``hamiltonian_argmin(t, x, p, lo, hi)`` prices controls outside the
    level grid: it returns a ``(k, m)`` block of candidate minimizers of
    ``H(t, x, p, .)`` over the box ``[lo, hi]`` that the interval's grid
    spans, a gated dimension at 0 or in its active range (see
    ``eval_hamiltonian_argmin``).  The candidates whose one-step state
    stays in the state box replace the grid in the interval's measure LP
    when the best of them beats the grid minimum by more than
    ``chattering.TIE_TOL``.  Its two companions, given with it or not at
    all, make the shooting tangent closed form: shooting differences none.
    ``hamiltonian_argmin_jacobian(t, x, p, lo, hi, u)`` is ``[du/dx |
    du/dp]`` (m, 2n) of the minimizer at the row ``u`` it returned over
    ``[lo, hi]``, 0 where ``u`` sits at a vertex or a clip.
    ``hamiltonian_state_hessian(t, x, p, U)`` is ``[H_xx | H_xu]`` (K, n, n
    + m) at each control row: the Jacobian of ``running_cost_state_gradient``
    row k plus ``p @ drift_jacobian`` in (x, u).
    """

    state_dim: int
    control_dim: int
    horizon: float
    initial_state: Array
    control_lower: Array
    control_upper: Array
    terminal_cost: Optional[Callable[[Array], float]] = None
    terminal_gradient: Optional[Callable[[Array], Array]] = None
    terminal_hessian: Optional[Callable[[Array], Array]] = None
    state_lower: Optional[Array] = None
    state_upper: Optional[Array] = None
    running_cost_batch: Optional[Callable[[float, Array, Array], Array]] = None
    running_cost_state_gradient: Optional[Callable[[float, Array, Array], Array]] = None
    gated_dims: Optional[Mapping[int, Tuple[float, float]]] = None
    drift: Optional[Callable[[float, Array], Array]] = None
    control_matrix: Optional[Array] = None
    drift_jacobian: Optional[Callable[[float, Array], Array]] = None
    hamiltonian_argmin: Optional[Callable[[float, Array, Array, Array, Array], Array]] = None
    hamiltonian_argmin_jacobian: Optional[Callable[[float, Array, Array, Array, Array, Array], Array]] = None
    hamiltonian_state_hessian: Optional[Callable[[float, Array, Array, Array], Array]] = None
    name: str = ""

    def __post_init__(self):
        _check_count("state_dim", self.state_dim, 1)
        _check_count("control_dim", self.control_dim, 1)
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        n, m = self.state_dim, self.control_dim
        object.__setattr__(self, "initial_state", _readonly(self.initial_state))
        object.__setattr__(self, "control_lower", _readonly(self.control_lower))
        object.__setattr__(self, "control_upper", _readonly(self.control_upper))
        if self.initial_state.shape != (n,):
            raise ValueError(f"initial_state must have shape ({n},)")
        if not np.all(np.isfinite(self.initial_state)):
            raise ValueError("initial_state must be finite")
        if self.control_lower.shape != (m,) or self.control_upper.shape != (m,):
            raise ValueError(f"control bounds must have shape ({m},)")
        if not (np.all(np.isfinite(self.control_lower)) and np.all(np.isfinite(self.control_upper))):
            raise ValueError("control bounds must be finite")
        if np.any(self.control_lower > self.control_upper):
            raise ValueError("control_lower must be <= control_upper componentwise")
        for attr in ("state_lower", "state_upper"):
            bound = getattr(self, attr)
            if bound is not None:
                bound = _readonly(bound)
                object.__setattr__(self, attr, bound)
                if bound.shape != (n,) or np.any(np.isnan(bound)):
                    raise ValueError(f"{attr} must have shape ({n},) and no NaN")
        both = self.state_lower is not None and self.state_upper is not None
        if both and np.any(self.state_lower > self.state_upper):
            raise ValueError("state_lower must be <= state_upper componentwise")
        if self.state_lower is not None and np.any(self.initial_state < self.state_lower):
            raise ValueError("initial_state violates state_lower")
        if self.state_upper is not None and np.any(self.initial_state > self.state_upper):
            raise ValueError("initial_state violates state_upper")
        gated = {}
        for dim, (lo, hi) in (self.gated_dims or {}).items():
            _check_count("gated_dims key", dim, 0)
            if not dim < m:
                raise ValueError(f"gated dim {dim} out of range")
            if not lo <= hi:
                raise ValueError(f"gated dim {dim} has empty active range")
            gated[dim] = (lo, hi)
        object.__setattr__(self, "gated_dims", MappingProxyType(gated))
        if self.drift is None or self.control_matrix is None or self.drift_jacobian is None:
            raise ValueError("a problem needs drift, control_matrix and drift_jacobian")
        object.__setattr__(self, "control_matrix", _readonly(self.control_matrix))
        if self.control_matrix.shape != (m, n):
            raise ValueError(f"control_matrix must have shape ({m}, {n})")
        if not np.all(np.isfinite(self.control_matrix)):
            raise ValueError("control_matrix must be finite")
        if self.running_cost_batch is None or self.running_cost_state_gradient is None:
            raise ValueError("a problem needs running_cost_batch and running_cost_state_gradient")
        trios = (("terminal_cost", "terminal_gradient", "terminal_hessian"),
                 ("hamiltonian_argmin", "hamiltonian_argmin_jacobian", "hamiltonian_state_hessian"))
        for first, second, third in trios:
            if 0 < sum(getattr(self, hook) is None for hook in (first, second, third)) < 3:
                raise ValueError(f"give {first}, {second} and {third}, or none")

    @property
    def has_state_bounds(self) -> bool:
        return self.state_lower is not None or self.state_upper is not None


def eval_drift(problem: ControlProblem, t: float, x: Array) -> Array:
    """The control-free part ``drift(t, x)`` of control-affine dynamics."""
    return _checked(problem.drift(t, x), (problem.state_dim,), "drift", t)


def eval_drift_jacobian(problem: ControlProblem, t: float, x: Array) -> Array:
    """``d drift_i / d x_j`` at (t, x), shape (n, n)."""
    n = problem.state_dim
    return _checked(problem.drift_jacobian(t, x), (n, n), "drift_jacobian", t)


def eval_hamiltonian_argmin(
    problem: ControlProblem, t: float, x: Array, p: Array, lo: Array, hi: Array
) -> Array:
    """The candidate rows of ``hamiltonian_argmin`` at (t, x, p) over the
    control ranges ``[lo, hi]``, shape ``(k, m)``.  Output that is not an
    array of numbers or a block of another shape raises ``ValueError``, a
    NaN or inf ``NonFiniteEvaluation``, and a row outside ``[lo, hi]`` or,
    on a gated dimension, neither 0 nor inside its active range
    ``ValueError``, each naming the hook."""
    rows = _as_floats(problem.hamiltonian_argmin(t, x, p, lo, hi), "hamiltonian_argmin", t)
    if rows.ndim != 2 or rows.shape[1] != problem.control_dim:
        raise ValueError(
            f"hamiltonian_argmin returned shape {rows.shape}, expected (k, {problem.control_dim})"
        )
    # a few candidate rows: scalar tests cost less than array calls here.
    # NaN and inf fail them too, since lo and hi are finite
    ranges = list(zip(lo.tolist(), hi.tolist()))
    gated = problem.gated_dims.items()
    for row in rows.tolist():
        for v, (a, b) in zip(row, ranges):
            if not a <= v <= b:
                if not math.isfinite(v):
                    raise NonFiniteEvaluation(f"hamiltonian_argmin returned a non-finite value at t={t}")
                raise ValueError(
                    f"hamiltonian_argmin returned a row outside the control ranges "
                    f"[{lo.tolist()}, {hi.tolist()}] at t={t}"
                )
        # inside [lo, hi], a gated value is admissible at 0 or in its active range
        for j, (low, high) in gated:
            if row[j] != 0.0 and not low <= row[j] <= high:
                raise ValueError(
                    f"hamiltonian_argmin returned {row[j]} on gated control dimension {j}, "
                    f"which admits only 0 and [{low}, {high}], at t={t}"
                )
    return rows


def eval_hamiltonian_argmin_jacobian(
    problem: ControlProblem, t: float, x: Array, p: Array, lo: Array, hi: Array, u: Array
) -> Array:
    """``[du/dx | du/dp]`` (m, 2n) of ``hamiltonian_argmin``'s row ``u`` over ``[lo, hi]``."""
    D = problem.hamiltonian_argmin_jacobian(t, x, p, lo, hi, u)
    return _checked(D, (problem.control_dim, 2 * problem.state_dim), "hamiltonian_argmin_jacobian", t)


def eval_hamiltonian_state_hessian(problem: ControlProblem, t: float, x: Array, p: Array, U: Array) -> Array:
    """``[H_xx | H_xu]`` (K, n, n + m) at (t, x, p) for each row of a (K, m) block of controls."""
    S, n = problem.hamiltonian_state_hessian(t, x, p, U), problem.state_dim
    return _checked(S, (len(U), n, n + problem.control_dim), "hamiltonian_state_hessian", t)


def eval_dynamics_batch(problem: ControlProblem, t: float, x: Array, controls: Array) -> Array:
    """Dynamics at one (t, x) for a (K, m) block of controls, shape (K, n):
    one drift evaluation and one product."""
    controls = np.asarray(controls, dtype=float)
    f = eval_drift(problem, t, x) + controls @ problem.control_matrix
    return _checked(f, (len(controls), problem.state_dim), "drift + u @ control_matrix", t)


def eval_running_cost_batch(problem: ControlProblem, t: float, x: Array, controls: Array) -> Array:
    """Running cost at one (t, x) for a (K, m) block of controls, shape (K,)."""
    controls = np.asarray(controls, dtype=float)
    g = problem.running_cost_batch(t, x, controls)
    return _checked(g, (len(controls),), "running_cost_batch", t)


def eval_running_cost_state_gradient(
    problem: ControlProblem, t: float, x: Array, controls: Array
) -> Array:
    """``d g / dx`` at one (t, x) for a (K, m) block of controls, shape (K, n)."""
    controls = np.asarray(controls, dtype=float)
    G = problem.running_cost_state_gradient(t, x, controls)
    return _checked(G, (len(controls), problem.state_dim), "running_cost_state_gradient", t)


def eval_hamiltonian(problem: ControlProblem, t: float, x: Array, p: Array, u: Array) -> float:
    """H(t, x, p, u) = g(t, x, u) + p . f(t, x, u), as a one-row batch."""
    row = np.asarray(u, dtype=float)[None, :]
    g = float(eval_running_cost_batch(problem, t, x, row)[0])
    f = eval_dynamics_batch(problem, t, x, row)[0]
    h = g + float(p @ f)
    if not np.isfinite(h):
        raise NonFiniteEvaluation(f"Hamiltonian is non-finite at t={t}")
    return h


def grad_h_state(problem: ControlProblem, t: float, x: Array, p: Array, levels: Array, weights: Array) -> Array:
    """The measure-weighted dH/dx over the support ``levels`` (K, m) and
    their ``weights`` (K,): ``sum_k a_k g_x(t, x, c_k) + F_x^T p``, with
    ``g_x`` from ``running_cost_state_gradient`` and ``F_x`` the
    ``drift_jacobian`` (the control-affine part does not depend on x)."""
    G = eval_running_cost_state_gradient(problem, t, x, levels)
    return weights @ G + p @ eval_drift_jacobian(problem, t, x)


def eval_terminal_cost(problem: ControlProblem, x_final: Array) -> float:
    if problem.terminal_cost is None:
        return 0.0
    psi = problem.terminal_cost(np.asarray(x_final, dtype=float))
    return float(_checked(psi, (), "terminal_cost"))


def terminal_costate(problem: ControlProblem, x_final: Array) -> Array:
    """Terminal costate p(T) = d(psi)/dx at x(T): the ``terminal_gradient``
    hook, or exact zeros when there is no terminal cost."""
    x_final = np.asarray(x_final, dtype=float)
    if not _all_finite(x_final):
        raise NonFiniteEvaluation("terminal state is non-finite")
    n = problem.state_dim
    if problem.terminal_gradient is None:
        return np.zeros(n)
    return _checked(problem.terminal_gradient(x_final), (n,), "terminal_gradient")


def terminal_hessian(problem: ControlProblem, x_final: Array) -> Array:
    """d2(psi)/dx2 at x(T): the ``terminal_hessian`` hook, or exact zeros
    when there is no terminal cost."""
    n = problem.state_dim
    if problem.terminal_hessian is None:
        return np.zeros((n, n))
    x_final = np.asarray(x_final, dtype=float)
    return _checked(problem.terminal_hessian(x_final), (n, n), "terminal_hessian")
