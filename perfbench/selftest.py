"""The benchmark's own test: two sets of runs agree within its bounds, and
every count metric repeats exactly.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload, each of two sets runs BENCHMARK.json's command untraced
with seeds 1..10 and traced with seed 1, for ``run_seconds``.  The second
set starts after the first has ended, as two benchmark sessions would.  It
checks:

- every run exits 0 and reports ``correct``;
- within each set, the spread of each end-to-end metric (distance between
  the first and third quartile over the median) stays within the metric's
  bound;
- the second set's median of each end-to-end metric is not worse than the
  first set's by more than the bound;
- per seed, ``iterations`` and every per-layer count (unit ``count`` or
  ``bytes``) and ``cost`` read the same in both sets.

Exits 1 on any failure.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

COUNT_UNITS = ("count", "bytes", "cost")
RUNS = 10
SETS = 2
TRACED = 1


def run_once(spec, workload, seed, seconds, trace) -> dict:
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(better: str, first: float, second: float) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS} | {"iterations"}
    seeds = range(1, RUNS + 1)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(SETS):
            plain = {seed: run_once(spec, workload, seed, seconds, 0) for seed in seeds}
            traced = {
                seed: run_once(spec, workload, seed, seconds, 1) for seed in seeds[:TRACED]
            }
            sets.append({"plain": plain, "traced": traced})
            print(f"{workload}: set {s + 1} done", file=sys.stderr, flush=True)

        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [runs["plain"][seed][name] for seed in seeds]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
                if spreads[-1] > bound:
                    failures.append(f"{workload} {name}: spread {spreads[-1]:.4f} > bound {bound}")
            change = worse_by(metric["better"], medians[0], medians[1])
            if change > bound:
                failures.append(f"{workload} {name}: second median worse by {change:.4f}")
            print(
                f"{workload:9s} {name:12s} bound {bound:<5} "
                + "  ".join(f"median {m:.6g} spread {s:.4f}" for m, s in zip(medians, spreads))
                + f"  worse by {change:+.4f}",
                flush=True,
            )

        for kind in ("plain", "traced"):
            first, second = sets[0][kind], sets[1][kind]
            for seed in first:
                for name in sorted(counted & set(first[seed])):
                    if first[seed][name] != second[seed][name]:
                        failures.append(
                            f"{workload} seed {seed} {name}: "
                            f"{first[seed][name]} then {second[seed][name]}"
                        )

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
