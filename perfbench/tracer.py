"""Per-layer spans for the traced run, recorded from the benchmark's side.

``install`` replaces each layer's public functions under the names that the
calling module binds (``shooting.propagate_forward``,
``chattering.eval_dynamics_batch``, ...) with wrappers that open a span around
the call and count the work it did.  No code under ``src/`` changes.

Spans nest on a stack: a closing span adds its duration to its parent's
child time, so a layer's self time is its duration minus the part its child
spans cover.  Only totals per span name are kept, in memory.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, List

import numpy as np

from chatterctl import chattering, propagation, shooting

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        child = [0.0]
        self._stack.append(child)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self.total[name] += duration
            self.self_time[name] += duration - child[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += duration

    def covered(self, name: str) -> float:
        """Time of ``name`` spans covered by their direct children."""
        return self.total[name] - self.self_time[name]


def _span(tracer: Tracer, name: str, fn: Callable, after: Callable = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> List[tuple]:
    """Replace every traced binding with its wrapper; returns the
    (module, name, original) triples that ``restore`` puts back."""
    counts = tracer.counts

    def shooting_propagation(args, trajectory):
        counts["shooting.propagations"] += 1
        counts["clamps"] += trajectory.clamp_count

    def feedback_propagation(args, trajectory):
        counts["clamps"] += trajectory.clamp_count

    def level_grid(args, result):
        levels = result[0].levels
        counts["levels_kept"] += levels.shape[0]
        # a single level pins every dimension, whatever the search found
        if levels.shape[0] > 1:
            counts["grids"] += 1
            counts["pinned"] += int(np.count_nonzero(np.all(levels == levels[0], axis=0)))

    def dyn_rows(args, result):
        counts["dyn_rows"] += result.shape[0]

    def sweep_rows(args, result):
        counts["sweep_rows"] += result.shape[0]

    update = shooting.update_initial_costate

    @functools.wraps(update)
    def correction(*args, **kwargs):
        try:
            return tracer.call("shooting.correction", update, *args, **kwargs)
        except shooting.SingularCorrection:
            counts["singular_corrections"] += 1
            raise

    forward = propagation.propagate_forward
    bindings = [
        (shooting, "propagate_forward",
         _span(tracer, "propagation.propagate_forward", forward, shooting_propagation)),
        (propagation, "propagate_forward",
         _span(tracer, "propagation.propagate_forward", forward, feedback_propagation)),
        (shooting, "finite_diff_sensitivities",
         _span(tracer, "shooting.sensitivities", shooting.finite_diff_sensitivities)),
        (shooting, "update_initial_costate", correction),
        (chattering, "generate_levels_with_dynamics",
         _span(tracer, "chattering.levels", chattering.generate_levels_with_dynamics,
               level_grid)),
        (chattering, "eval_dynamics_batch",
         _span(tracer, "chattering.dyn", chattering.eval_dynamics_batch, dyn_rows)),
        (propagation, "solve_measure_lp",
         _span(tracer, "chattering.lp", propagation.solve_measure_lp)),
        (propagation, "eval_running_cost_batch",
         _span(tracer, "model.sweep", propagation.eval_running_cost_batch, sweep_rows)),
        (propagation, "eval_dynamics_batch",
         _span(tracer, "model.sweep", propagation.eval_dynamics_batch)),
        (propagation, "step_costate",
         _span(tracer, "propagation.step_costate", propagation.step_costate)),
        (propagation, "grad_h_state",
         _span(tracer, "model.hx_grad", propagation.grad_h_state)),
    ]
    originals = []
    for module, name, wrapper in bindings:
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)
    return originals


def restore(originals: List[tuple]) -> None:
    for module, name, original in originals:
        setattr(module, name, original)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics: times and counts per op, level-generation counts
    per interval (one ``chattering.levels`` call per interval).  Pinned
    dimensions are the mean over the level grids of more than one row."""
    total, self_time, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    intervals = calls["chattering.levels"]
    propagations = calls["propagation.propagate_forward"]
    rows = counts["dyn_rows"]
    return {
        "shooting.propagations": counts["shooting.propagations"] / ops,
        "shooting.sensitivity_s": total["shooting.sensitivities"] / ops,
        "shooting.correction_s": total["shooting.correction"] / ops,
        "shooting.singular_corrections": counts["singular_corrections"] / ops,
        "propagation.s_per_call": total["propagation.propagate_forward"] / propagations,
        "propagation.self_s": self_time["propagation.propagate_forward"] / ops,
        "propagation.step_costate_s": total["propagation.step_costate"] / ops,
        "propagation.clamps": counts["clamps"] / ops,
        "chattering.levels_s": total["chattering.levels"] / ops,
        "chattering.levels_self_s": self_time["chattering.levels"] / ops,
        "chattering.dyn_calls": calls["chattering.dyn"] / intervals,
        "chattering.dyn_rows": rows / intervals,
        "chattering.dyn_s": total["chattering.dyn"] / ops,
        "chattering.levels_kept": counts["levels_kept"] / intervals,
        # without state bounds no level is evaluated for admissibility and
        # every generated level is kept
        "chattering.kept_ratio": counts["levels_kept"] / rows if rows else 1.0,
        "chattering.lp_s": total["chattering.lp"] / ops,
        "chattering.pinned_dims": counts["pinned"] / counts["grids"] if counts["grids"] else 0.0,
        "model.sweep_rows": counts["sweep_rows"] / ops,
        "model.sweep_s": total["model.sweep"] / ops,
        "model.hx_grad_calls": calls["model.hx_grad"] / ops,
        "trace.coverage": tracer.covered(OP) / total[OP],
    }
