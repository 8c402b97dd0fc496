"""chatterctl benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lqr --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``lqr``, ``desk`` and ``feedback``.  Each run
starts fresh worker processes (``worker.py``) with BLAS/OpenMP threads
pinned to 1 and the checkout's ``src`` on the path.  Set-up is measured
``SETUPS`` times, each in a fresh process, from process start to the
worker's ``ready`` line; the last worker then runs the ops.

Times with a bound (``wall_s``, ``setup_s``) are scaled to the reference
speed of ``speed.kernel``, because the speed of a shared VM drifts by up to
2x within minutes (see ``speed.py``).  An op is scaled by kernel samples
taken during it, a set-up by the worker's kernel runs before its imports
and after its build; their time is taken out of the set-up time.
The info line keeps the unscaled times.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The line before
it records the environment and the op-time samples.  The exit code is 0
only when a worker ran and reported; ops that fail a check are counted in
``failed`` and make ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import speed

HERE = Path(__file__).resolve().parent
SETUPS = 9
#: the whole run, set-ups included, ends within this many seconds
RUN_LIMIT_S = 170.0
TAIL_SAMPLES = 10

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerFailed(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv, env, root: Path, command: str, deadline: float):
    """Start one worker, time its set-up, send it ``command``.

    Returns the set-up time, unscaled and scaled, and what the worker
    printed after ``ready``.  The worker is killed at ``deadline`` and always
    waited for."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root
    )
    watchdog = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(command + "\n")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.strip():
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    ready = json.loads(ready)
    setup_s -= ready["speed_s"]
    return setup_s, speed.normalise(setup_s, ready["speed"]), out


def tail(walls):
    """Highest percentile of the op times with at least TAIL_SAMPLES samples
    above it, or None when the run has too few samples."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return None
    return {"percentile": 100.0 * (n - TAIL_SAMPLES) / n, "value": ordered[n - TAIL_SAMPLES - 1]}


def end_to_end(report: dict, setups) -> dict:
    return {
        "wall_s": statistics.median(report["scaled"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "iterations": report["iterations"],
    }


def per_layer(report: dict) -> dict:
    metrics = dict(report["layers"])
    metrics.update(
        {
            "problems.build_s": report["build_s"],
            "cli.export_s": report["export_s"],
            "cli.export_bytes": report["export_bytes"],
            "trace.overhead_s": report["trace_overhead_s"],
            "cost": report["cost"],
            "fail_ratio": report["failed"] / report["attempted"],
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (root / "src" / "chatterctl" / "__init__.py").is_file():
        print(f"no chatterctl sources under {root / 'src'}", file=sys.stderr)
        return 2

    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = worker_env(root)
    setups, scaled_setups = [], []
    try:
        # set-up time is an end-to-end metric; a traced run needs one worker
        for _ in range((1 if args.trace else SETUPS) - 1):
            setup_s, scaled, _ = run_worker(argv, env, root, "exit", deadline)
            setups.append(setup_s)
            scaled_setups.append(scaled)
        setup_s, scaled, out = run_worker(argv, env, root, "go", deadline)
        setups.append(setup_s)
        scaled_setups.append(scaled)
        report = json.loads(out.strip().splitlines()[-1])
    except (WorkerFailed, json.JSONDecodeError, IndexError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    if "iterations" not in report:
        print("no op completed; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics, section = per_layer(report), "per_layer"
    else:
        metrics, section = end_to_end(report, scaled_setups), "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {section}", file=sys.stderr)
        return 1

    walls = report["scaled"] or report["walls"]
    print(
        json.dumps(
            {
                "environment": report["environment"],
                "op_walls_s": report["walls"],
                "op_walls_scaled_s": report["scaled"],
                "wall_s.tail": tail(walls),
                "setup_s_samples": setups,
                "setup_s_scaled": scaled_setups,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
