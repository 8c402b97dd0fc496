"""The machine's speed, sampled while the benchmark times something.

On a shared VM the speed of a vCPU can change by a factor of two within
seconds and stay changed for minutes, so op times from runs made a few
minutes apart differ by far more than any code change the benchmark has to
resolve.  ``Sampler`` measures that speed while an op runs: a timer signal
interrupts the op at a fixed interval and times ``kernel``, a fixed piece of
interpreter, small-array and cache-sized array work that belongs to the
benchmark, not to the code under test.  The kernel runs once untimed before
each timed run, so the sample does not depend on what the op left in the
caches.  ``normalise`` scales an op time by the ratio of the
kernel's reference time to its mean time during the op, which gives the op
time at the reference speed, in seconds.  A change to the code under test
moves the op time and leaves the kernel alone, so it moves the scaled time
by the same factor.

The kernel's own time inside the op is subtracted from the op time.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

#: time of one ``kernel`` call at the reference speed: about its time inside
#: an op on a 2-vCPU x86-64 VM (Python 3.11, NumPy 2.4), so scaled op times
#: read close to the wall times there
KERNEL_REFERENCE_S = 1.2e-3
KERNEL_ROUNDS = 200
KERNEL_SWEEPS = 3
BURST_RUNS = 5

#: a desk-sized state matrix and a level-grid-sized array (4096 x 29)
_MATRIX = np.linspace(0.0, 1.0, 20 * 29).reshape(20, 29)
_VECTOR = np.empty(20)
_GRID = np.linspace(0.0, 1.0, 4096 * 29).reshape(4096, 29)
_GRID_OUT = np.empty_like(_GRID)
_GRID_VECTOR = np.empty(4096)


def kernel() -> float:
    """Run the fixed calibration work once; returns its duration.  The
    collector is off while it runs, so its time does not depend on how many
    objects the code under test keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    x = np.ones(29)
    acc = 0.0
    start = perf_counter()
    for i in range(KERNEL_ROUNDS):
        np.dot(_MATRIX, x, out=_VECTOR)
        acc += float(_VECTOR[i % 20]) * 1e-3
        for j in range(8):
            acc = acc * 0.5 + (i ^ j) * 0.25
    for _ in range(KERNEL_SWEEPS):
        np.dot(_GRID, x, out=_GRID_VECTOR)
        np.multiply(_GRID, 0.5, out=_GRID_OUT)
        np.maximum(_GRID_OUT, 0.25, out=_GRID_OUT)
    duration = perf_counter() - start
    if enabled:
        gc.enable()
    return duration


def burst(runs: int = BURST_RUNS) -> list:
    """``runs`` timed kernel runs after one untimed run: the speed at one
    moment, for work too short to sample with a timer."""
    kernel()
    return [kernel() for _ in range(runs)]


class Sampler:
    """Times ``kernel`` every ``interval`` seconds, from a SIGALRM handler,
    between ``start`` and ``stop``."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples = []
        self.overhead_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(kernel())
        self.overhead_s += perf_counter() - start

    def start(self) -> None:
        self.samples, self.overhead_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def normalise(seconds: float, samples) -> float:
    """``seconds`` measured at the speed the kernel ``samples`` show, scaled
    to the reference speed."""
    return seconds * KERNEL_REFERENCE_S / (sum(samples) / len(samples))
