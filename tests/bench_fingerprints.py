"""Prints the fingerprint of every benchmark run that the bit-identity check
compares: one line per run with the workload, the seed, the
``oracles.fingerprint`` digest of its trajectory, its iteration count and
its cost as ``float.hex()``.

Run from anywhere, with the checkout's ``src`` found on its own:

    python tests/bench_fingerprints.py

The runs are built by the benchmark's ``perfbench/workloads.py``, which this
script only imports.  A change that must leave every output bit for bit as
it was prints the same lines as its parent; diff the two outputs.  pytest
does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

import oracles  # noqa: E402
import workloads  # noqa: E402

#: the seeds of each workload, lqr and desk's reference run (seed 0) among them
RUNS = {"lqr": range(5), "desk": (0, 1, 2, 3, 7, 9), "feedback": range(6)}


def main() -> int:
    for name, seeds in RUNS.items():
        problem = workloads.build_problem(name)
        for seed in seeds:
            case = workloads.CASES[name](problem, seed)
            result = case.op()
            trajectory = case.trajectory(result)
            print(
                name, seed, oracles.fingerprint(trajectory), case.iterations(result),
                float(trajectory.accumulated_cost).hex(),
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
