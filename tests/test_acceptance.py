"""Acceptance suite: every release criterion, one test each, at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.

The supply-chain desk run takes a minute or two; everything else is fast.
"""

import json
import time

import numpy as np

from chatterctl import (
    GridParams,
    ShootingConfig,
    TimePartition,
    build_lqr,
    build_supply_chain,
    lqr_analytic_solution,
    propagate_forward,
    solve,
    synthetic_demand,
)
from chatterctl import chattering
from chatterctl.chattering import schedule_segments
from chatterctl.cli import check_gradients, check_lp, check_tables, main
from oracles import dense_control, feedback_replay, fingerprint, schedule_time_average


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


class TestAcceptance:
    def test_lqr_fidelity(self):
        started = time.perf_counter()
        problem = build_lqr()
        partition = TimePartition.uniform(problem.horizon, 100)
        config = ShootingConfig(p0_initial=np.zeros(1))
        result = solve(problem, partition, config, GridParams(101, 4096))
        states = result.trajectory.states()[:, 0]
        exact = np.array([lqr_analytic_solution(float(t))[0] for t in partition.times])
        state_err = float(np.max(np.abs(states - exact) / np.abs(exact)))
        j_star = lqr_analytic_solution(0.0)[3]
        cost_err = abs(result.trajectory.accumulated_cost - j_star) / j_star
        elapsed = time.perf_counter() - started
        report(
            "lqr-fidelity",
            state_err <= 0.05 and cost_err <= 0.05 and elapsed < 5.0,
            f"state L-inf rel err {state_err:.4f}, cost rel err {cost_err:.4f}, "
            f"{elapsed:.2f}s",
        )

    def test_lqr_shooting_convergence(self, tmp_path):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["solve", "--problem", "lqr", "--out-dir", str(out)])
            payload = json.loads((out / "convergence.json").read_text())
            runs.append((code, payload))
        (code_a, pay_a), (code_b, pay_b) = runs
        ok = (
            code_a == 0
            and code_b == 0
            and pay_a["converged"]
            and pay_a["residual"] < 1e-3
            and pay_a["iterations"] <= 500
            and pay_a["residual_history"] == pay_b["residual_history"]
            and pay_a["p0"] == pay_b["p0"]
        )
        report(
            "lqr-shooting-convergence",
            ok,
            f"residual {pay_a['residual']:.3e} after {pay_a['iterations']} iterations, "
            "bitwise identical across runs",
        )

    def test_supply_chain_desk_run(self):
        # gamma=1.0: the measured sensitivities are exact within a switching
        # pattern, so the undamped correction is appropriate here and
        # converges in a handful of iterations
        started = time.perf_counter()
        demand = synthetic_demand("seasonal", 5.0, 0.5)
        problem = build_supply_chain(demand, 1.0, 200)
        partition = TimePartition.uniform(1.0, 200)
        config = ShootingConfig(p0_initial=np.zeros(20), gamma=1.0)
        result = solve(problem, partition, config, GridParams(101, 4096))
        elapsed = time.perf_counter() - started
        states = result.trajectory.states()
        ok = (
            problem.state_dim == 20
            and problem.control_dim == 29
            and result.converged
            and result.iterations <= 200
            and elapsed < 600.0
            and float(states.min()) >= -1e-9
        )
        report(
            "supply-chain-desk-run",
            ok,
            f"converged={result.converged} in {result.iterations} iterations, "
            f"{elapsed:.0f}s, min state {states.min():.2e}",
        )

    def test_lp_oracle_equivalence(self):
        ok, lines = check_lp(instances=1000)
        report("lp-oracle-equivalence", ok, "; ".join(lines))

    def test_gradient_suite(self):
        ok, lines = check_gradients(points_per_problem=500)
        report("gradient-suite", ok, "; ".join(lines))

    def test_chattering_signal_fidelity(self):
        rng = np.random.default_rng(20250812)
        worst_mean = 0.0
        worst_occupation = 0.0
        for _ in range(1000):
            K = int(rng.integers(1, 9))
            m = int(rng.integers(1, 4))
            levels = rng.uniform(-10.0, 10.0, size=(K, m))
            raw = rng.uniform(0.0, 1.0, size=K) + 1e-3
            weights = raw / raw.sum()
            t_start = float(rng.uniform(0.0, 5.0))
            dt = float(rng.uniform(0.01, 2.0))
            starts, ends, _, _ = schedule_segments([t_start, t_start + dt], [0, K], weights)
            occupation = ends - starts
            worst_occupation = max(
                worst_occupation, float(np.max(np.abs(occupation - weights * dt))) / dt
            )
            mean = schedule_time_average(starts, ends, levels)
            expected = dense_control(levels, weights)
            worst_mean = max(worst_mean, float(np.max(np.abs(mean - expected))))
        ok = worst_mean <= 1e-12 and worst_occupation <= 1e-12
        report(
            "chattering-signal-fidelity",
            ok,
            f"worst mean err {worst_mean:.2e}, worst occupation err {worst_occupation:.2e}*dt",
        )

    def test_refinement(self):
        # propagation refinement at the solver's default initial costate;
        # near the optimal costate the leading error coefficient is
        # stationarity-suppressed and the I=50 difference is pre-asymptotic
        problem = build_lqr()
        costs = {}
        for intervals in (50, 100, 200, 400, 800):
            partition = TimePartition.uniform(1.0, intervals)
            costs[intervals] = propagate_forward(
                problem, partition, np.zeros(1), GridParams(1001, 4096)
            ).accumulated_cost
        diffs = [abs(costs[i] - costs[2 * i]) for i in (50, 100, 200, 400)]
        ratios = [a / b for a, b in zip(diffs, diffs[1:])]
        report(
            "refinement",
            all(r >= 1.5 for r in ratios),
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
        )

    def test_closed_form_shooting_decay(self):
        from chatterctl import ControlProblem

        problem = ControlProblem(
            state_dim=2,
            control_dim=1,
            horizon=1.0,
            initial_state=np.zeros(2),
            running_cost=lambda t, x, u: 0.0,
            drift=lambda t, x: np.zeros(2),
            control_matrix=np.zeros((1, 2)),
            drift_jacobian=lambda t, x: np.zeros((2, 2)),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        partition = TimePartition.uniform(1.0, 5)
        p0 = np.array([3.0, -4.0])
        config = ShootingConfig(
            p0_initial=p0, gamma=0.5, epsilon=1e-9,
            max_iterations=60,
        )
        result = solve(problem, partition, config, GridParams(3, 16))
        norm0 = float(np.linalg.norm(p0))
        deviations = [
            abs(res - 0.5**k * norm0) for k, res in enumerate(result.residual_history)
        ]
        ok = result.converged and max(deviations) <= 1e-10
        report(
            "closed-form-shooting-decay",
            ok,
            f"{len(deviations)} iterations, max deviation {max(deviations):.2e}",
        )

    def test_table_fidelity(self):
        ok, lines = check_tables()
        report("table-fidelity", ok, "; ".join(lines))


class TestReferenceRuns:
    """The reference runs, pinned: iteration count and cost bits (within
    1e-12 relative, which leaves room for another BLAS's rounding), and a
    rerun that reproduces the whole trajectory bit for bit."""

    @staticmethod
    def solve_twice(problem, intervals, gamma):
        partition = TimePartition.uniform(problem.horizon, intervals)
        config = ShootingConfig(p0_initial=np.zeros(problem.state_dim), gamma=gamma)
        first, second = (solve(problem, partition, config, GridParams(101, 4096)) for _ in "ab")
        assert fingerprint(first.trajectory) == fingerprint(second.trajectory)
        return first

    def test_desk(self):
        problem = build_supply_chain(synthetic_demand("seasonal", 5.0, 0.5), 1.0, 200)
        result = self.solve_twice(problem, 200, 1.0)
        assert result.converged and result.iterations == 3
        expected = float.fromhex("0x1.1f78d8930ea28p+20")
        assert abs(result.trajectory.accumulated_cost - expected) <= 1e-12 * expected

    def test_feedback(self, monkeypatch):
        # the feedback benchmark's seed 0: one propagation through replayed
        # states, where each level build starts from the one before; a run of
        # fresh builds must give the same trajectory bit for bit
        problem, p0, source = feedback_replay(0)
        partition, params = TimePartition.uniform(1.0, 200), GridParams(101, 4096)
        trajectory = propagate_forward(problem, partition, p0, params, source)
        expected = float.fromhex("-0x1.181f0fecfdd22p+27")
        assert abs(trajectory.accumulated_cost - expected) <= 1e-12 * abs(expected)
        generate = chattering.generate_levels_with_dynamics

        def fresh(problem, t, x, dt, params, drift, cache):
            return generate(problem, t, x, dt, params, drift)

        monkeypatch.setattr(chattering, "generate_levels_with_dynamics", fresh)
        assert fingerprint(propagate_forward(problem, partition, p0, params, source)) == fingerprint(
            trajectory
        )

    def test_lqr(self):
        result = self.solve_twice(build_lqr(), 100, 0.5)
        assert result.converged and result.iterations == 6
        expected = float.fromhex("0x1.519b95e71dd5ap+7")
        assert abs(result.trajectory.accumulated_cost - expected) <= 1e-12 * expected
