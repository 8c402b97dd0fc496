import csv
import dataclasses
import hashlib
import io
import json
import logging
import sys

import numpy as np
import pytest

from chatterctl import (
    ControlProblem,
    GridParams,
    ShootingConfig,
    TimePartition,
    build_lqr,
    propagate_forward,
    solve,
)
from chatterctl import problems
from chatterctl.cli import (
    SolveConfig,
    build_problem,
    export_convergence,
    export_schedule,
    export_trajectory,
    main,
    parse_config_file,
)
from chatterctl.model import eval_running_cost_batch, eval_terminal_cost
from oracles import bolza_problem, unpriced


def small_lqr_trajectory(intervals=4):
    problem = build_lqr()
    part = TimePartition.uniform(1.0, intervals)
    config = ShootingConfig(p0_initial=np.zeros(1), max_iterations=20)
    result = solve(problem, part, config, GridParams(51, 4096))
    return problem, result.trajectory


def refuses(call, error) -> bool:
    """Whether ``call()`` raises ``error``."""
    try:
        call()
    except error:
        return True
    return False


#: the library object that checks each count or range the CLI also checks
LIBRARY_CHECKS = {
    "levels": lambda v: GridParams(k_per_dim=v),
    "level_cap": lambda v: GridParams(cap=v),
    "max_iters": lambda v: ShootingConfig(p0_initial=np.zeros(1), max_iterations=v),
    "intervals": lambda v: TimePartition.uniform(1.0, v),
    "gamma": lambda v: ShootingConfig(p0_initial=np.zeros(1), gamma=v),
    "eps": lambda v: ShootingConfig(p0_initial=np.zeros(1), epsilon=v),
}


class TestConfig:
    @pytest.mark.parametrize(
        "name, value",
        [("levels", 1), ("levels", 2), ("level_cap", 0), ("level_cap", 1), ("max_iters", 0),
         ("max_iters", 1), ("intervals", 0), ("intervals", 1), ("gamma", 0.0), ("gamma", 1.0),
         ("gamma", 1.5), ("eps", 0.0), ("eps", 1e-3), ("eps", float("inf"))],
    )
    def test_refuses_what_the_library_refuses(self, name, value):
        # the CLI checks the counts and the step rule by building
        # TimePartition, GridParams and ShootingConfig, and names its own
        # key in the library's reason; a check of its own that drifted from
        # the library's would fail here
        from chatterctl import ConfigError

        library = refuses(lambda: LIBRARY_CHECKS[name](value), ValueError)
        assert refuses(SolveConfig(**{name: value}).validate, ConfigError) == library

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"gamma": 0}, "error: gamma must lie in (0, 1]"),
            ({"demand": "weekly"}, "error: demand must be one of"),
            # the grocer has one fixed-cost rule, and no key selects it
            ({"fixed-cost-mode": "on-order"}, "error: unknown config key 'fixed-cost-mode'"),
            ([{"gamma": 0.5}], "error: config file <path> must hold a JSON object, not a list"),
            (b'{"1": [1.0],', "error: config file <path> is not valid JSON: "),
            (b'{"gamma": 0.5, "gamma": 1.0}', "error: config file <path>: key 'gamma' appears twice"),
        ],
        ids=["zero-gamma", "unknown-demand", "unknown-mode", "list", "truncated", "repeated-key"],
    )
    def test_config_file_refused(self, raw, message, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_bytes(raw if isinstance(raw, bytes) else json.dumps(raw).encode("utf-8"))
        assert main(["solve", "--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message.replace("<path>", str(path)))
        assert "Traceback" not in err and not out.exists()

    def test_unparsable_p0_flag_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--p0", "1,x", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: could not parse --p0 '1,x'")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1,,2", "1,,", ",", ""])
    def test_p0_flag_with_an_empty_field_refused(self, tmp_path, capsys, text):
        # an empty field is no value: "1,,2" is not the two values 1 and 2
        out = tmp_path / "out"
        assert main(["solve", "--problem", "lqr", "--p0", text, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: could not parse --p0 {text!r}")
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problemo": "lqr"}), encoding="utf-8")
        from chatterctl import ConfigError

        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_removed_delta_p_rejected(self, tmp_path, capsys):
        from chatterctl import ConfigError

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"delta-p": 0.25}), encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key 'delta-p'"):
            parse_config_file(path)
        assert main(["solve", "--delta-p", "0.25", "--out-dir", str(tmp_path)]) == 1
        assert "--delta-p" in capsys.readouterr().err

    def test_non_utf8_file_rejected_by_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_bytes(b'{"problem": "lqr\xff"}')
        assert main(["solve", "--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} is not UTF-8 text")
        assert "Traceback" not in err and not out.exists()

    def test_removed_ridge_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ridge": 1e-8}), encoding="utf-8")
        assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "unknown config key 'ridge'" in capsys.readouterr().err

    def test_removed_fixed_cost_mode_flag_rejected(self, tmp_path, capsys):
        assert main(["solve", "--fixed-cost-mode", "always", "--out-dir", str(tmp_path)]) == 1
        assert "--fixed-cost-mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["validate", "lqr"], ["export-fixtures"]], ids=["validate", "export-fixtures"]
    )
    def test_removed_commands_are_unknown(self, argv, capsys):
        # the oracle checks live in the test suite, and the grocer's tables
        # have one copy, the records in problems.py: solve is the one command
        assert main(argv) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_flags_and_config_keys_are_one_set(self):
        # a flag without a SolveConfig field, or a field without a flag, is
        # a knob reachable from one front door only
        from chatterctl.cli import build_parser

        flags = set(vars(build_parser().parse_args(["solve"]))) - {"command", "config"}
        assert flags == {field.name for field in dataclasses.fields(SolveConfig)}

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"intervals": 40, "gamma": 0.25}), encoding="utf-8")
        from chatterctl.cli import build_parser, config_from_args

        args = build_parser().parse_args(
            ["solve", "--config", str(path), "--gamma", "0.9"]
        )
        config = config_from_args(args)
        assert config.intervals == 40
        assert config.gamma == 0.9

    def test_validation_messages(self):
        from chatterctl import ConfigError

        with pytest.raises(ConfigError, match="max-iters"):
            SolveConfig(max_iters=0).validate()
        with pytest.raises(ConfigError, match="problem"):
            SolveConfig(problem="rocket").validate()

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"intervals": "100"}, "intervals"),
            ({"gamma": None}, "gamma"),
            ({"intervals": True}, "intervals"),
            ({"levels": 2.5}, "levels"),
            ({"max-iters": 1e2}, "max-iters"),
            ({"eps": "1e-3"}, "eps"),
            ({"gamma": True}, "gamma"),
            ({"p0": 0.5}, "p0"),
            ({"p0": [0.5, "1"]}, "p0"),
            ({"p0": [False]}, "p0"),
            ({"out-dir": 5}, "out-dir"),
        ],
    )
    def test_file_values_of_the_wrong_type_rejected(self, raw, key, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out-dir": str(out), **raw}), encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_infinite_eps_rejected(self, source, tmp_path, capsys):
        # an infinite eps would accept the first iterate, whatever its residual
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"eps": float("inf"), "out-dir": str(out)}), encoding="utf-8")
        args = ["--config", str(path)] if source == "file" else ["--eps", "inf", "--out-dir", str(out)]
        assert main(["solve", "--problem", "lqr", *args]) == 1
        assert capsys.readouterr().err.startswith("error: eps must be positive and finite")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("period", "inf"), ("amplitude", "nan")])
    def test_non_finite_demand_rejected_before_solving(self, flag, value, tmp_path, capsys):
        # an infinite pulse period used to run with zero demand and converge
        out = tmp_path / "out"
        args = ["--problem", "supply-chain", "--demand", "pulse", f"--{flag}", value]
        assert main(["solve", *args, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: demand {flag} must be")
        assert not out.exists()

    def test_file_numbers_accepted(self):
        # JSON integers are numbers; p0 takes integers and floats
        SolveConfig(gamma=1, eps=1, amplitude=0, period=1, p0=[0, 1.5]).validate()

    def test_build_problem_selects_builtins(self):
        assert build_problem(SolveConfig(problem="lqr")).name == "lqr"
        assert build_problem(SolveConfig(problem="supply-chain", intervals=64)).name == (
            "supply-chain"
        )


class TestExportTrajectory:
    def test_line_count_small_run(self, tmp_path):
        _, trajectory = small_lqr_trajectory(intervals=4)
        path = tmp_path / "trajectory.csv"
        export_trajectory(trajectory, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 6  # header + 4 interval rows + terminal row

    def test_numbers_round_trip_exactly(self, tmp_path):
        _, trajectory = small_lqr_trajectory(intervals=7)
        path = tmp_path / "trajectory.csv"
        export_trajectory(trajectory, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, pt in zip(rows, trajectory.points):
            assert float(row["t"]) == pt.t
            assert float(row["x_0"]) == pt.x[0]
            assert float(row["p_0"]) == pt.p[0]
            if pt.u is not None:
                assert float(row["u_0"]) == pt.u[0]

    def test_terminal_row_has_empty_control_cells(self, tmp_path):
        _, trajectory = small_lqr_trajectory(intervals=3)
        path = tmp_path / "trajectory.csv"
        export_trajectory(trajectory, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["u_0"] == ""
        assert rows[-1]["H"] == ""

    def test_final_j_cum_reproducible_from_rows(self, tmp_path):
        problem, trajectory = small_lqr_trajectory(intervals=9)
        path = tmp_path / "trajectory.csv"
        export_trajectory(trajectory, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        total = 0.0
        for row, nxt in zip(rows[:-1], rows[1:]):
            t = float(row["t"])
            x = np.array([float(row["x_0"])])
            u = np.array([[float(row["u_0"])]])
            total += eval_running_cost_batch(problem, t, x, u)[0] * (float(nxt["t"]) - t)
        total += eval_terminal_cost(problem, np.array([float(rows[-1]["x_0"])]))
        assert abs(total - float(rows[-1]["J_cum"])) <= 1e-10

    def test_lf_line_endings(self, tmp_path):
        _, trajectory = small_lqr_trajectory(intervals=3)
        path = tmp_path / "trajectory.csv"
        export_trajectory(trajectory, path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestExportBytes:
    """The exports of ``chatterctl solve --problem lqr`` at the CLI defaults,
    pinned byte for byte.  The problem has one state and one control, so no
    BLAS summation order enters these bytes."""

    DIGESTS = {
        "trajectory.csv": "e70270b182ac8fb71855cfe9c0f4fb00784b8242994c59e50957de6d344fbf2e",
        "schedule.csv": "955ba539853ccf8d6145af6c1da16dc411d9eb4d2b55098f62944aa648a65edf",
        "convergence.json": "766fd0ba6ae744f45be35ed9074e7335797cdb53c2546bab5981de67c7fe94b6",
    }

    def test_lqr_defaults(self, tmp_path):
        assert main(["solve", "--problem", "lqr", "--out-dir", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS

    def test_lqr_full_step_converges(self, tmp_path):
        # gamma 1 takes every full step: the tangent sees the priced control,
        # so the second one lands on the root
        assert main(["solve", "--problem", "lqr", "--gamma", "1", "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "convergence.json").read_text())
        assert payload["iterations"] == 3
        assert payload["step_kinds"] == ["newton", "newton"]
        assert payload["step_lengths"] == [1.0, 1.0]


class TestExportSchedule:
    def test_level_index_counts_each_interval_support(self, tmp_path):
        # every Bolza interval at x0 = 0 chatters between u = -1 and u = 1
        trajectory = propagate_forward(
            bolza_problem(0.0), TimePartition.uniform(1.0, 4), np.zeros(1), GridParams()
        )
        path = tmp_path / "schedule.csv"
        export_schedule(trajectory, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["interval"], r["level_index"], r["u_0"]) for r in rows] == [
            (str(i), str(k), u) for i in range(4) for k, u in ((0, "-1"), (1, "1"))
        ]
        assert [(float(r["start"]), float(r["end"])) for r in rows] == [
            (t, t + 0.125) for t in (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
        ]


class TestConvergenceJson:
    def test_run_without_an_iteration_is_strict_json(self, tmp_path):
        # drift -5 and u <= 1 push the state below its floor at 0 from x0 = 0,
        # so interval 0 is infeasible and no iteration completes: the
        # residual is inf, which JSON cannot carry
        problem = ControlProblem(
            state_dim=1,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(1),
            running_cost_batch=lambda t, x, U: np.zeros(len(U)),
            running_cost_state_gradient=lambda t, x, U: np.zeros((len(U), len(x))),
            drift=lambda t, x: np.array([-5.0]),
            control_matrix=np.ones((1, 1)),
            drift_jacobian=lambda t, x: np.zeros((1, 1)),
            control_lower=np.array([0.0]),
            control_upper=np.array([1.0]),
            state_lower=np.array([0.0]),
        )
        config = ShootingConfig(p0_initial=np.zeros(1))
        result = solve(problem, TimePartition.uniform(1.0, 10), config, GridParams(3, 16))
        assert result.iterations == 0 and result.residual == np.inf
        path = tmp_path / "convergence.json"
        export_convergence(result, path)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(path.read_text(), parse_constant=refuse)
        assert payload["residual"] is None and payload["cost"] is None
        assert payload["residual_history"] == [] and payload["converged"] is False


class TestSolveCommand:
    def test_lqr_solve_writes_outputs(self, tmp_path):
        code = main(
            [
                "solve",
                "--problem",
                "lqr",
                "--intervals",
                "100",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 102  # header + 101 data rows
        payload = json.loads((tmp_path / "convergence.json").read_text())
        assert payload["converged"] is True
        assert payload["residual"] < 1e-3
        assert len(payload["residual_history"]) == payload["iterations"]
        assert (tmp_path / "schedule.csv").exists()

    def test_convergence_records_condition_numbers(self, tmp_path):
        args = ["solve", "--problem", "lqr", "--intervals", "40", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        payload = json.loads((tmp_path / "convergence.json").read_text())
        conditions = payload["condition_numbers"]
        assert len(conditions) == len(payload["step_kinds"]) == payload["iterations"] - 1
        # one costate coordinate: every accepted 1 x 1 matrix has condition 1
        assert conditions == [1.0] * len(conditions)

    def test_zero_max_iters_rejected(self, tmp_path, capsys):
        code = main(
            ["solve", "--problem", "lqr", "--max-iters", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "max-iters" in capsys.readouterr().err

    def test_budget_exhaustion_exits_two(self, tmp_path):
        code = main(
            [
                "solve",
                "--problem",
                "lqr",
                "--intervals",
                "20",
                "--max-iters",
                "1",
                "--eps",
                "1e-12",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        payload = json.loads((tmp_path / "convergence.json").read_text())
        assert payload["converged"] is False

    def test_detected_cycle_exits_two(self, tmp_path, monkeypatch):
        # the grid-only lqr cycles at 20 intervals; the priced one converges
        grid_only = unpriced(build_lqr())
        monkeypatch.setattr(problems, "build_lqr", lambda: grid_only)
        code = main(["solve", "--problem", "lqr", "--intervals", "20", "--out-dir", str(tmp_path)])
        assert code == 2
        payload = json.loads((tmp_path / "convergence.json").read_text())
        assert payload["converged"] is False
        assert "cycle" in payload["message"]
        assert payload["iterations"] < 500

    def test_two_runs_are_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["solve", "--problem", "lqr", "--intervals", "60"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "convergence.json").read_bytes() == (out2 / "convergence.json").read_bytes()
        assert (out1 / "schedule.csv").read_bytes() == (out2 / "schedule.csv").read_bytes()

    def test_residual_recomputable_from_outputs(self, tmp_path):
        assert main(["solve", "--problem", "lqr", "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "convergence.json").read_text())
        # no terminal cost: the residual is the terminal costate norm
        assert np.linalg.norm(payload["p_T"]) == pytest.approx(
            min(payload["residual_history"]), rel=1e-12
        )

    def test_p0_flag_parsed(self, tmp_path):
        code = main(
            [
                "solve",
                "--problem",
                "lqr",
                "--intervals",
                "40",
                "--p0",
                "30.0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_solver_error_exits_one(self, tmp_path, monkeypatch, capsys):
        # the running cost turns NaN halfway: the error names its type, hook,
        # time and interval, and no output is written
        lqr = build_lqr()
        cost = lqr.running_cost_batch

        def failing(t, x, U):
            return cost(t, x, U) + (np.nan if t >= 0.5 else 0.0)

        failing_lqr = dataclasses.replace(lqr, running_cost_batch=failing)
        monkeypatch.setattr(problems, "build_lqr", lambda: failing_lqr)
        out = tmp_path / "out"
        assert main(["solve", "--problem", "lqr", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: NonFiniteEvaluation: running_cost_batch returned a non-finite value "
            "at t=0.5 [interval 50, t=0.5]\n"
        )
        assert not out.exists()

    def test_unwritable_output_exits_one(self, tmp_path, capsys, monkeypatch):
        # a directory where the trajectory CSV goes makes the write fail
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        assert main(["solve", "--problem", "lqr", "--intervals", "4", "--out-dir", "out"]) == 1
        assert capsys.readouterr().err.startswith("error: failed writing trajectory CSV to")

    def test_p0_wrong_length_rejected(self, tmp_path, capsys):
        code = main(
            ["solve", "--problem", "lqr", "--p0", "1,2,3", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "p0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--problem", "lqr"], ["--problem", "supply-chain", "--intervals", "200", "--gamma", "1.0"]],
        ids=["lqr", "desk"],
    )
    def test_convergence_records_every_cost(self, argv, tmp_path):
        assert main(["solve", *argv, "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "convergence.json").read_text())
        assert len(payload["cost_history"]) == len(payload["residual_history"]) == payload["iterations"]
        # a converged run ends on its best iterate
        assert payload["cost_history"][-1] == payload["cost"]

    def test_each_call_prints_to_the_stderr_of_its_time(self, tmp_path, monkeypatch):
        # main keeps no process state: two calls in one process each print
        # to the sys.stderr current at the call, and the root logger keeps
        # the handlers it had (none here)
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        runs = [("lqr", 0, "converged", []), ("budget", 2, "not converged", ["--max-iters", "1"])]
        for tag, code, outcome, flags in runs:
            stream = io.StringIO()
            monkeypatch.setattr(sys, "stderr", stream)
            assert main(["solve", "--problem", "lqr", *flags, "--out-dir", str(tmp_path / tag)]) == code
            payload = json.loads((tmp_path / tag / "convergence.json").read_text())
            lines = stream.getvalue().splitlines()
            assert lines[0].startswith(f"lqr: {outcome} after {payload['iterations']} iteration(s) in ")
            assert lines[1:] == ([payload["message"]] if payload["message"] else [])
        assert logging.getLogger().handlers == []
