"""Command-line front end: solve runs, validation checks, fixture export.

Subcommands
-----------
solve            run the shooting solver on a built-in problem and export the
                 trajectory CSV, chattering schedule CSV and convergence JSON
validate         run oracle comparisons (lqr | lp | gradients | tables |
                 sensitivities)
export-fixtures  write the grocer parameter tables as CSV

Exit codes: 0 success/converged, 2 not converged (iteration budget exhausted
or a cycle of iterates detected), 1 error.
Verbosity comes from the CHATTER_LOG env var (quiet | info | debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import problems, shooting
from .chattering import GridParams, InfeasibleLevels, schedule_segments, solve_measure_lp
from .model import (
    ControlProblem,
    NonFiniteEvaluation,
    _FEW_VALUES,
    _central_difference,
    eval_drift,
    eval_drift_jacobian,
    eval_running_cost_batch,
    eval_running_cost_state_gradient,
)
from .problems import ConfigError
from .propagation import TimePartition, Trajectory, propagate_forward

log = logging.getLogger("chatterctl")

#: the grocer benchmark runs on a unit horizon; interval count is the knob
SUPPLY_CHAIN_HORIZON = 1.0

PROBLEM_CHOICES = ("lqr", "supply-chain")

#: SolveConfig fields that a config file must give as JSON numbers; bool is
#: an int subclass in Python and is refused
FLOAT_FIELDS = ("gamma", "eps", "amplitude", "period")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class SolveConfig:
    """One solve run, as configured from flags and/or a JSON config file."""

    problem: str = "lqr"
    intervals: int = 100
    levels: int = GridParams.k_per_dim
    level_cap: int = GridParams.cap
    gamma: float = shooting.ShootingConfig.gamma
    eps: float = shooting.ShootingConfig.epsilon
    max_iters: int = shooting.ShootingConfig.max_iterations
    p0: Optional[List[float]] = None
    demand: str = "seasonal"
    amplitude: float = 5.0
    period: float = 0.5
    out_dir: str = "."

    def validate(self) -> None:
        # the library checks its own counts: its reason, after its own name
        # for the count, follows the CLI key
        for name, build in (
            ("intervals", lambda v: TimePartition.uniform(1.0, v)),
            ("levels", lambda v: GridParams(k_per_dim=v)),
            ("level_cap", lambda v: GridParams(cap=v)),
            ("max_iters", lambda v: shooting.ShootingConfig(np.zeros(1), max_iterations=v)),
        ):
            try:
                build(getattr(self, name))
            except ValueError as err:
                raise ConfigError(f"{name.replace('_', '-')} {str(err).partition(' ')[2]}") from None
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name.replace('_', '-')} must be a number, got {value!r}")
        if self.p0 is not None and not (
            isinstance(self.p0, list) and all(_is_number(v) for v in self.p0)
        ):
            raise ConfigError(f"p0 must be null or a list of numbers, got {self.p0!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out-dir must be a string, got {self.out_dir!r}")
        if self.problem not in PROBLEM_CHOICES:
            raise ConfigError(f"problem must be one of {PROBLEM_CHOICES}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if not 0.0 < self.eps < np.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps!r}")
        if self.demand not in problems.DEMAND_PROFILES:
            raise ConfigError(f"demand must be one of {problems.DEMAND_PROFILES}")

    @classmethod
    def from_json_dict(cls, raw: dict) -> "SolveConfig":
        known = {f.name.replace("_", "-"): f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[known[key]] = value
        return cls(**kwargs)


def parse_config_file(path: str) -> SolveConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8 text: {err.reason} at byte {err.start}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return SolveConfig.from_json_dict(raw)


def build_problem(config: SolveConfig) -> ControlProblem:
    if config.problem == "lqr":
        return problems.build_lqr()
    demand = problems.synthetic_demand(config.demand, config.amplitude, config.period)
    return problems.build_supply_chain(demand, SUPPLY_CHAIN_HORIZON, config.intervals)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def _num(value: float) -> str:
    return format(float(value), ".17g")


def _write_text(path, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"failed writing {what} to {path}: {err}") from err


def export_trajectory(trajectory: Trajectory, path) -> None:
    """CSV of the control law: one row per interval start plus a terminal row
    with empty control/Hamiltonian cells.  Numbers carry 17 significant
    digits so parsing them back reproduces the exact doubles."""
    n, m = trajectory.x.shape[1], trajectory.u.shape[1]
    header = (
        ["t"]
        + [f"x_{j}" for j in range(n)]
        + [f"p_{j}" for j in range(n)]
        + [f"u_{j}" for j in range(m)]
        + ["H", "J_cum"]
    )
    times, xs, ps = trajectory.times.tolist(), trajectory.x.tolist(), trajectory.p.tolist()
    cum = 0.0
    lines = [",".join(header)]
    for i, (u, h, stage) in enumerate(
        zip(trajectory.u.tolist(), trajectory.h_values.tolist(), trajectory.stage_costs.tolist())
    ):
        cells = [_num(v) for v in [times[i], *xs[i], *ps[i], *u, h, cum]]
        cum += stage
        lines.append(",".join(cells))
    cells = [_num(v) for v in [times[-1], *xs[-1], *ps[-1]]]
    lines.append(",".join(cells + [""] * (m + 1) + [_num(trajectory.accumulated_cost)]))
    _write_text(path, "\n".join(lines) + "\n", "trajectory CSV")


def export_schedule(trajectory: Trajectory, path) -> None:
    """CSV of the realized chattering schedule: the duty-cycle segments of
    every interval (see ``chattering.schedule_segments``) with their level
    vectors; ``level_index`` counts the interval's support levels from 0."""
    m = trajectory.u.shape[1]
    header = ["interval", "start", "end", "level_index"] + [f"u_{j}" for j in range(m)]
    starts, ends, interval, rank = schedule_segments(
        trajectory.times, trajectory.offsets, trajectory.support_weights
    )
    lines = [",".join(header)]
    for i, k, start, end, level in zip(
        interval.tolist(), rank.tolist(), starts.tolist(), ends.tolist(),
        trajectory.support_levels.tolist(),
    ):
        lines.append(",".join([str(i), _num(start), _num(end), str(k)] + [_num(v) for v in level]))
    _write_text(path, "\n".join(lines) + "\n", "schedule CSV")


def _json_number(value: float) -> Optional[float]:
    """``value`` as a float, or None (JSON null) when it is inf or nan,
    which JSON cannot represent."""
    value = float(value)
    return value if np.isfinite(value) else None


def export_convergence(result: shooting.ShootingResult, path) -> None:
    """JSON summary of a solve, strict JSON: a non-finite residual (also in
    the history), cost or condition number is written as null, such as the
    residual of a run in which no iteration completed or the condition
    number of a refused correction matrix."""
    trajectory = result.trajectory
    payload = {
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "residual": _json_number(result.residual),
        "residual_history": [_json_number(r) for r in result.residual_history],
        "cost": _json_number(trajectory.accumulated_cost) if trajectory else None,
        "p0": [float(v) for v in result.p0_final],
        "p_T": [float(v) for v in trajectory.p[-1]] if trajectory else None,
        "message": result.message,
        "step_kinds": list(result.step_kinds),
        "condition_numbers": [_json_number(c) for c in result.condition_numbers],
        "step_lengths": [float(v) for v in result.step_lengths],
    }
    _write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n", "convergence JSON")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def run_solve(config: SolveConfig) -> int:
    try:
        config.validate()
        problem = build_problem(config)
        if config.p0 is not None and len(config.p0) != problem.state_dim:
            raise ConfigError(
                f"p0 must have {problem.state_dim} entries, got {len(config.p0)}"
            )
        partition = TimePartition.uniform(problem.horizon, config.intervals)
        p0 = np.zeros(problem.state_dim) if config.p0 is None else np.asarray(config.p0, float)
        shooting_config = shooting.ShootingConfig(
            p0_initial=p0,
            gamma=config.gamma,
            epsilon=config.eps,
            max_iterations=config.max_iters,
        )
        grid_params = GridParams(config.levels, config.level_cap)

        def progress(iteration: int, residual: float, cost: float) -> None:
            log.debug(
                "iteration %d: residual %.6e cost %.6e", iteration, residual, cost
            )

        started = time.perf_counter()
        result = shooting.solve(
            problem, partition, shooting_config, grid_params, progress=progress
        )
        elapsed = time.perf_counter() - started
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if result.trajectory is not None:
            export_trajectory(result.trajectory, out_dir / "trajectory.csv")
            export_schedule(result.trajectory, out_dir / "schedule.csv")
        export_convergence(result, out_dir / "convergence.json")
        log.info(
            "%s: %s after %d iteration(s) in %.2fs; best residual %.3e; cost %s",
            config.problem,
            "converged" if result.converged else "not converged",
            result.iterations,
            elapsed,
            result.residual,
            f"{result.trajectory.accumulated_cost:.6g}" if result.trajectory else "n/a",
        )
        if not result.converged and result.message:
            log.info("%s", result.message)
        return 0 if result.converged else 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NonFiniteEvaluation, InfeasibleLevels) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def check_lqr() -> Tuple[bool, List[str]]:
    """Solve the regulator at the CLI defaults and compare the state
    trajectory and cost against the closed-form optimum."""
    defaults = SolveConfig()
    problem = build_problem(defaults)
    partition = TimePartition.uniform(problem.horizon, defaults.intervals)
    config = shooting.ShootingConfig(p0_initial=np.zeros(1))
    result = shooting.solve(problem, partition, config, GridParams(defaults.levels, defaults.level_cap))
    trajectory = result.trajectory
    exact = np.array([problems.lqr_analytic_solution(t)[0] for t in partition.times])
    states = trajectory.states()[:, 0]
    rel_err = float(np.max(np.abs(states - exact) / np.abs(exact)))
    j_star = problems.lqr_analytic_solution(0.0)[3]
    cost_err = abs(trajectory.accumulated_cost - j_star) / j_star
    ok = result.converged and rel_err <= 0.05 and cost_err <= 0.05
    lines = [
        f"shooting converged: {result.converged} ({result.iterations} iterations, "
        f"residual {result.residual:.3e})",
        f"max relative state error vs analytic solution: {rel_err:.4f} (limit 0.05)",
        f"relative cost error vs analytic optimum: {cost_err:.4f} (limit 0.05)",
    ]
    return ok, lines


def check_lp(instances: int = 1000, seed: int = 20250810) -> Tuple[bool, List[str]]:
    """Measure LP against brute-force vertex enumeration on random instances
    of 1 to ``2 * _FEW_VALUES`` levels, so that the LP's finiteness test
    runs on both sides of its bound."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(instances):
        k = int(rng.integers(1, 2 * _FEW_VALUES + 1))
        h = rng.uniform(-10.0, 10.0, size=k)
        support, w = solve_measure_lp(h)
        objective = float(w @ h[support])
        vertex_best = min(float(h[j]) for j in range(k))
        simplex_ok = (
            abs(float(w.sum()) - 1.0) <= 1e-12
            and np.all(w >= 0.0)
            and np.all(w <= 1.0)
        )
        if objective != vertex_best or not simplex_ok:
            failures += 1
    ok = failures == 0
    return ok, [f"{instances - failures}/{instances} instances match the vertex oracle exactly"]


def check_gradients(points_per_problem: int = 500, seed: int = 20250811) -> Tuple[bool, List[str]]:
    """The two parts of dH/dx on random points for both built-in problems:
    ``running_cost_state_gradient`` on a random block of controls against a
    central difference of ``running_cost_batch`` in x, and
    ``drift_jacobian`` against one of the drift."""
    rng = np.random.default_rng(seed)
    lines: List[str] = []
    ok = True
    for name in PROBLEM_CHOICES:
        problem = build_problem(SolveConfig(problem=name, intervals=200))
        worst, bad = 0.0, 0
        for _ in range(points_per_problem):
            t = float(rng.uniform(0.0, problem.horizon))
            x = rng.uniform(0.0, 20.0, size=problem.state_dim)
            if problem.state_lower is None:
                x = x - 10.0
            U = rng.uniform(problem.control_lower, problem.control_upper, size=(4, problem.control_dim))
            cost = (eval_running_cost_state_gradient(problem, t, x, U),
                    lambda y: eval_running_cost_batch(problem, t, y, U))
            drift = eval_drift_jacobian(problem, t, x), lambda y: eval_drift(problem, t, y)
            for analytic, fn in (cost, drift):
                # row by row: each control's gradient, each drift coordinate's
                tol = np.maximum(1e-6, 1e-4 * np.linalg.norm(analytic, axis=1))
                err = np.abs(analytic - _central_difference(fn, x).T).max(axis=1)
                worst = max(worst, float((err / tol).max()))
                bad += bool(np.any(err > tol))
        ok = ok and bad == 0
        lines.append(
            f"{name}: {points_per_problem - bad}/{points_per_problem} points within "
            f"tolerance (worst err/tol {worst:.2e})"
        )
    return ok, lines


def check_tables() -> Tuple[bool, List[str]]:
    """Byte-compare the embedded parameter tables, canonically rendered,
    against the shipped CSV fixtures."""
    lines = []
    ok = True
    for table in problems.FIXTURE_FILES:
        match = problems.fixture_text(table) == problems.render_csv(table)
        ok = ok and match
        lines.append(f"{table}: {'match' if match else 'MISMATCH'}")
    return ok, lines


def check_sensitivities() -> Tuple[bool, List[str]]:
    """Tangent sensitivities against the finite-difference reference:

    - the 10-interval grocer at p0 = 0, where every perturbed run stays on
      the nominal states: ``P_x`` must match exactly and ``P_p`` to 1e-6
      relative;
    - LQR at 100 intervals from p0 = 30, where every interval is priced and
      no perturbed run crosses a clip, so the tangent sees the priced
      control: ``P_x`` and ``P_p`` must match to 1e-6 relative.
    """
    grocer = SolveConfig(problem="supply-chain", intervals=10)
    tangent, reference = _tangent_and_reference(grocer, GridParams(3, 64), 0.0)
    px_equal = bool(np.array_equal(tangent.P_x, reference.P_x))
    errors = {"grocer P_p": _relative_difference(tangent.P_p, reference.P_p)}
    tangent, reference = _tangent_and_reference(SolveConfig(problem="lqr", intervals=100), GridParams(), 30.0)
    errors["lqr P_x"] = _relative_difference(tangent.P_x, reference.P_x)
    errors["lqr P_p"] = _relative_difference(tangent.P_p, reference.P_p)
    lines = [f"grocer P_x identical to finite differences: {px_equal}"]
    lines += [f"{name} max relative difference: {err:.2e} (limit 1e-06)" for name, err in errors.items()]
    return px_equal and all(err <= 1e-6 for err in errors.values()), lines


def _tangent_and_reference(
    config: SolveConfig, grid_params: GridParams, guess: float
) -> Tuple[shooting.SensitivityEstimate, shooting.SensitivityEstimate]:
    """The tangent sensitivities along the run of ``config``'s problem and
    interval count from ``p0 = guess`` in every coordinate, and the
    finite-difference ones (step 1e-3) that they are checked against."""
    problem = build_problem(config)
    p0 = np.full(problem.state_dim, guess)
    partition = TimePartition.uniform(problem.horizon, config.intervals)
    nominal = propagate_forward(problem, partition, p0, grid_params)
    tangent = shooting.tangent_sensitivities(problem, nominal)
    reference = shooting.finite_diff_sensitivities(problem, partition, p0, 1e-3, grid_params)
    return tangent, reference


def _relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """The largest entry of ``|a - b|`` over the largest of ``|b|``."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CHECKS = {
    "lqr": check_lqr,
    "lp": check_lp,
    "gradients": check_gradients,
    "tables": check_tables,
    "sensitivities": check_sensitivities,
}


def run_validate(target: str) -> int:
    if target not in CHECKS:
        print(f"error: unknown validation target {target!r}", file=sys.stderr)
        return 1
    ok, lines = CHECKS[target]()
    for line in lines:
        print(f"  {line}")
    print(f"validate {target}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def run_export_fixtures(out_dir: str) -> int:
    try:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        for table, fname in problems.FIXTURE_FILES.items():
            (target / fname).write_text(problems.render_csv(table), encoding="utf-8")
            print(f"wrote {target / fname}")
        return 0
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_p0(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"could not parse --p0 {text!r}: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatterctl",
        description="Chattering-based Hamiltonian optimal control solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the shooting solver on a built-in problem")
    sp.add_argument("--problem", choices=PROBLEM_CHOICES)
    sp.add_argument("--intervals", type=int)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--level-cap", type=int, dest="level_cap")
    sp.add_argument(
        "--gamma", type=float,
        help="floor of the Newton step length in (0, 1]: each correction tries the full "
        "step and halves it down to this floor while the residual does not fall enough",
    )
    sp.add_argument("--eps", type=float)
    sp.add_argument("--max-iters", type=int, dest="max_iters")
    sp.add_argument("--p0", type=str, help="comma-separated initial costate guess")
    sp.add_argument("--demand", choices=problems.DEMAND_PROFILES)
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--period", type=float)
    sp.add_argument("--out-dir", type=str, dest="out_dir")
    sp.add_argument("--config", type=str, help="JSON config file; flags override it")

    vp = sub.add_parser("validate", help="run oracle comparisons")
    vp.add_argument("target", choices=tuple(CHECKS))

    ep = sub.add_parser("export-fixtures", help="write the parameter tables as CSV")
    ep.add_argument("--out-dir", type=str, dest="out_dir", default=".")

    return parser


def config_from_args(args: argparse.Namespace) -> SolveConfig:
    config = parse_config_file(args.config) if args.config else SolveConfig()
    for field in dataclasses.fields(SolveConfig):
        value = getattr(args, field.name, None)
        if value is None:
            continue
        if field.name == "p0":
            value = _parse_p0(value)
        setattr(config, field.name, value)
    return config


def setup_logging() -> None:
    name = os.environ.get("CHATTER_LOG", "info").strip().lower()
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        name, logging.INFO
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")
    log.setLevel(level)


def main(argv: Optional[Sequence[str]] = None) -> int:
    setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse reports usage problems itself; fold them into the error code
        return 0 if err.code in (0, None) else 1
    if args.command == "solve":
        try:
            config = config_from_args(args)
        except (ConfigError, OSError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return run_solve(config)
    if args.command == "validate":
        return run_validate(args.target)
    return run_export_fixtures(args.out_dir)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
