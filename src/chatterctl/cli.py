"""Command-line front end: ``chatterctl solve`` runs the shooting solver on
a built-in problem and exports the trajectory CSV, the chattering schedule
CSV and the convergence JSON.  The oracle checks of the solver live in the
test suite.

Exit codes: 0 success/converged, 2 not converged (iteration budget exhausted
or a cycle of iterates detected), 1 error.  A run prints one summary line
(and a not-converged run its message) to stderr; ``convergence.json`` is
the record of every iteration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import problems, shooting
from .chattering import GridParams, InfeasibleLevels, schedule_segments
from .model import ControlProblem, NonFiniteEvaluation
from .problems import ConfigError
from .propagation import TimePartition, Trajectory, _read_json_object

#: the grocer benchmark runs on a unit horizon; interval count is the knob
SUPPLY_CHAIN_HORIZON = 1.0

PROBLEM_CHOICES = ("lqr", "supply-chain")

#: SolveConfig fields that a config file must give as JSON numbers; bool is
#: an int subclass in Python and is refused
FLOAT_FIELDS = ("gamma", "eps", "amplitude", "period")


#: the CLI key of each library setting whose name differs from it
LIBRARY_NAMES = {"k_per_dim": "levels", "cap": "level-cap", "epsilon": "eps", "max_iterations": "max-iters"}


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
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name.replace('_', '-')} must be a number, got {value!r}")
        # the library checks its own settings, after the number checks so
        # that no string reaches its comparisons: its reason, after its own
        # name for the setting, follows the CLI key
        try:
            TimePartition.uniform(1.0, self.intervals)
            GridParams(self.levels, self.level_cap)
            shooting.ShootingConfig(
                np.zeros(1), gamma=self.gamma, epsilon=self.eps, max_iterations=self.max_iters
            )
        except ValueError as err:
            name, _, reason = str(err).partition(" ")
            raise ConfigError(f"{LIBRARY_NAMES.get(name, name)} {reason}") from None
        if self.p0 is not None and not (
            isinstance(self.p0, list) and all(_is_number(v) for v in self.p0)
        ):
            raise ConfigError(f"p0 must be null or a list of numbers, got {self.p0!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out-dir must be a string, got {self.out_dir!r}")
        if self.problem not in PROBLEM_CHOICES:
            raise ConfigError(f"problem must be one of {PROBLEM_CHOICES}")
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
        raw = _read_json_object(path, "config file")
    except ValueError as err:
        raise ConfigError(str(err)) from None
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
        "cost_history": [_json_number(c) for c in result.cost_history],
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
        started = time.perf_counter()
        result = shooting.solve(problem, partition, shooting_config, grid_params)
        elapsed = time.perf_counter() - started
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if result.trajectory is not None:
            export_trajectory(result.trajectory, out_dir / "trajectory.csv")
            export_schedule(result.trajectory, out_dir / "schedule.csv")
        export_convergence(result, out_dir / "convergence.json")
        cost = f"{result.trajectory.accumulated_cost:.6g}" if result.trajectory else "n/a"
        print(
            f"{config.problem}: {'converged' if result.converged else 'not converged'} after "
            f"{result.iterations} iteration(s) in {elapsed:.2f}s; best residual "
            f"{result.residual:.3e}; cost {cost}",
            file=sys.stderr,
        )
        if not result.converged and result.message:
            print(result.message, file=sys.stderr)
        return 0 if result.converged else 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NonFiniteEvaluation, InfeasibleLevels) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse reports usage problems itself; fold them into the error code
        return 0 if err.code in (0, None) else 1
    try:
        config = config_from_args(args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return run_solve(config)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
