import csv
import dataclasses
import hashlib
import json

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
from chatterctl.problems import FIXTURE_FILES, fixture_text
from oracles import bolza_problem


def small_lqr_trajectory(intervals=4):
    problem = build_lqr()
    part = TimePartition.uniform(1.0, intervals)
    config = ShootingConfig(p0_initial=np.zeros(1), max_iterations=20)
    result = solve(problem, part, config, GridParams(51, 4096))
    return problem, result.trajectory


class TestConfig:
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
        "trajectory.csv": "03dc671084e3b6a0bc64a42b5268bda134b4f0e6153c938601a03544441fa8e8",
        "schedule.csv": "a7694916eace7ac57a7bea16de93845dbecac187770e399f017774328a41137a",
        "convergence.json": "1577011afde7121794ae9cd710fa16431e7b306470ff006615de1b9ec6b2987a",
    }

    def test_lqr_defaults(self, tmp_path):
        assert main(["solve", "--problem", "lqr", "--out-dir", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS


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
            running_cost=lambda t, x, u: 0.0,
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
        grid_only = dataclasses.replace(build_lqr(), hamiltonian_argmin=None)
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

    def test_p0_wrong_length_rejected(self, tmp_path, capsys):
        code = main(
            ["solve", "--problem", "lqr", "--p0", "1,2,3", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "p0" in capsys.readouterr().err


class TestValidateCommand:
    def test_tables(self, capsys):
        assert main(["validate", "tables"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lqr(self, capsys):
        assert main(["validate", "lqr"]) == 0
        out = capsys.readouterr().out
        assert "max relative state error" in out and "PASS" in out

    def test_lp(self, capsys):
        assert main(["validate", "lp"]) == 0
        out = capsys.readouterr().out
        assert "1000/1000" in out and "PASS" in out

    def test_gradients(self, capsys):
        assert main(["validate", "gradients"]) == 0
        out = capsys.readouterr().out
        assert out.count("500/500 points within tolerance") == 2
        assert "PASS" in out

    def test_sensitivities(self, capsys):
        assert main(["validate", "sensitivities"]) == 0
        out = capsys.readouterr().out
        assert "P_x identical to finite differences: True" in out
        assert "validate sensitivities: PASS" in out


class TestExportFixtures:
    def test_written_files_match_packaged_fixtures(self, tmp_path):
        assert main(["export-fixtures", "--out-dir", str(tmp_path)]) == 0
        for table, fname in FIXTURE_FILES.items():
            assert (tmp_path / fname).read_text(encoding="utf-8") == fixture_text(table)


class TestLogging:
    @pytest.mark.parametrize("level", ["quiet", "info", "debug"])
    def test_log_levels_accepted(self, level, tmp_path, monkeypatch):
        monkeypatch.setenv("CHATTER_LOG", level)
        code = main(
            ["solve", "--problem", "lqr", "--intervals", "30", "--out-dir", str(tmp_path)]
        )
        assert code in (0, 2)
