"""Benchmark worker: one workload at one seed, in a fresh process.

``run.py`` starts this script with BLAS/OpenMP threads pinned to 1 and the
checkout's ``src`` on the path.  The worker sets up (imports, builds the
problem, partition and replay table), prints a ``ready`` line and reads one
command from stdin.  The ``ready`` line carries ``speed.burst`` samples
taken before the solver's imports and after the build, and the time they
took, so that ``run.py`` can scale the set-up time.  Commands: ``exit``
ends it, ``go`` makes it run ops for the given number of seconds and print
one JSON line with what it measured.

An untraced op runs under ``speed.Sampler``: the op time is reported both
as measured (``walls``) and scaled to the reference speed (``scaled``).

With ``--trace 1`` it installs the layer wrappers and runs traced ops.  The
tracing overhead is then measured in the same process on the op's first
propagation: untraced and traced runs of it alternate (at least
``OVERHEAD_PAIRS`` pairs, and pairs for at least ``OVERHEAD_SECONDS``), and
the median difference within a pair is scaled by the propagations per op.
A second full op would double a desk run, whose single solve takes 45-75 s
on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

_start = perf_counter()
SETUP_SAMPLES = speed.burst()
SETUP_SAMPLES_S = perf_counter() - _start

import chatterctl  # noqa: E402  (after the first speed samples)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from chatterctl import cli, shooting  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OVERHEAD_PAIRS = 5
OVERHEAD_SECONDS = 2.0
#: seconds between two speed samples during an untraced op
SAMPLE_INTERVAL_S = 0.1


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def run_ops(case, seconds: float, call, sampler=None) -> dict:
    """Run ops until ``seconds`` have passed (at least one), checking each.

    Every op must give the same cost and iteration count, bit for bit, as
    the first one; a raised exception or a failed check counts the op as
    failed.  With a ``sampler`` each op's time is also scaled to the
    reference speed, and the sampler's own time is taken out of it."""
    walls, scaled, failed, last = [], [], 0, None
    reference = None
    deadline = perf_counter() + seconds
    while True:
        if sampler is not None:
            sampler.start()
        start = perf_counter()
        try:
            result, error = call(case.op), None
        except Exception as err:  # op boundary: count the failure, keep running
            result, error = None, err
        wall = perf_counter() - start
        if sampler is not None:
            sampler.stop()
            wall -= sampler.overhead_s
            scaled.append(speed.normalise(wall, sampler.samples or [speed.kernel()]))
        walls.append(wall)
        if error is not None:
            failed += 1
            traceback.print_exception(error, file=sys.stderr)
        else:
            errors = case.check(result)
            signature = (
                float(case.trajectory(result).accumulated_cost).hex(),
                int(case.iterations(result)),
            )
            if reference is None:
                reference = signature
            elif signature != reference:
                errors.append(f"op gave {signature}, the first op gave {reference}")
            if errors:
                failed += 1
                print("; ".join(errors), file=sys.stderr)
            last = result
        if perf_counter() >= deadline:
            break
    return {"walls": walls, "scaled": scaled, "failed": failed, "last": last, "reference": reference}


def propagation_overhead(case) -> float:
    """Median over adjacent untraced/traced pairs of the traced minus the
    untraced time of the case's first propagation; pairing cancels the
    drift of the machine's speed between pairs."""
    tracer = tracing.Tracer()
    differences = []
    deadline = perf_counter() + OVERHEAD_SECONDS
    while len(differences) < OVERHEAD_PAIRS or perf_counter() < deadline:
        start = perf_counter()
        case.propagate()
        plain = perf_counter() - start
        originals = tracing.install(tracer)
        start = perf_counter()
        case.propagate()
        differences.append(perf_counter() - start - plain)
        tracing.restore(originals)
    return statistics.median(differences)


def export(result, directory: Path) -> int:
    """Write the CLI's output files for one op's result; returns their bytes."""
    if isinstance(result, shooting.ShootingResult):
        cli.export_trajectory(result.trajectory, directory / "trajectory.csv")
        cli.export_schedule(result.trajectory, directory / "schedule.csv")
        cli.export_convergence(result, directory / "convergence.json")
    else:
        cli.export_trajectory(result, directory / "trajectory.csv")
        cli.export_schedule(result, directory / "schedule.csv")
    return sum(path.stat().st_size for path in directory.iterdir())


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "commit": _commit(),
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if SRC.resolve() not in Path(chatterctl.__file__).resolve().parents:
        print(f"chatterctl was imported from {chatterctl.__file__}, not {SRC}", file=sys.stderr)
        return 3

    start = perf_counter()
    problem = workloads.build_problem(args.workload)
    build_s = perf_counter() - start
    case = workloads.CASES[args.workload](problem, args.seed)
    start = perf_counter()
    samples = SETUP_SAMPLES + speed.burst()
    emit({"ready": True, "speed": samples, "speed_s": SETUP_SAMPLES_S + perf_counter() - start})

    if sys.stdin.readline().strip() != "go":
        return 0

    if args.trace:
        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
        ops = run_ops(case, args.seconds, lambda op: tracer.call(tracing.OP, op))
        tracing.restore(originals)
        per_op = tracer.calls["propagation.propagate_forward"] / len(ops["walls"])
        report = {
            "layers": tracing.layer_metrics(tracer, len(ops["walls"])),
            "trace_overhead_s": per_op * propagation_overhead(case),
        }
    else:
        ops = run_ops(case, args.seconds, lambda op: op(), speed.Sampler(SAMPLE_INTERVAL_S))
        report = {}
    report.update(
        walls=ops["walls"],
        scaled=ops["scaled"],
        attempted=len(ops["walls"]),
        failed=ops["failed"],
        build_s=build_s,
        environment=environment(),
    )
    if ops["reference"] is not None:
        report["cost"] = float.fromhex(ops["reference"][0])
        report["iterations"] = ops["reference"][1]
    if args.trace and ops["last"] is not None:
        with tempfile.TemporaryDirectory(prefix=".perfbench-export-", dir=ROOT) as tmp:
            start = perf_counter()
            report["export_bytes"] = export(ops["last"], Path(tmp))
            report["export_s"] = perf_counter() - start

    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
