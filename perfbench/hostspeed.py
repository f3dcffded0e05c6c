"""Host-speed calibration, so that time figures do not follow the neighbours.

On a shared host the speed of this process moves by 20-45 % within seconds
to minutes as other tenants load the physical cores (steal time stays near
zero). The slowdown is common to plain Python and to numpy FFTs: over a
three-minute probe the ratio of a D = 0 sweep point to a small fixed kernel
varied by 2-4 % (quartile distance over median, 20-30 s windows) while the
point alone varied by 12-17 %.

So the benchmark times a fixed kernel (a Python loop, scipy quadrature and
FFTs, about 9 ms) on each CPU between steps, and divides each step's time
by the kernel's time around it relative to :data:`REFERENCE_S`. The result
is the step's time at the reference speed of the host. The kernel does not
touch qcthreshold, so any change to the package shows in full.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import time

import numpy as np
from scipy import integrate

#: Median kernel time on one CPU of the 2-vCPU Xeon host of the seed
#: baseline.
REFERENCE_S = 0.0093
#: Kernel repetitions per CPU and sample; the sample uses their median.
REPEATS = 3
#: A new sample is taken before a step when the last is older than this.
MAX_AGE_S = 0.25
#: CPUs sampled, so that a sample stays short on a large machine (sweep
#: pools use at most four workers).
MAX_CPUS = 4

_ROWS = np.random.default_rng(0).random((128, 1024))
_SPECTRUM = np.empty((128, 513), dtype=complex)
_BACK = np.empty_like(_ROWS)


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x)


def _kernel() -> float:
    # the three kinds of work the workloads do: Python bytecode, scipy
    # quadrature with a Python integrand, and FFTs; allocation-free, so
    # that it never waits on page faults whose cost depends on what ran
    # before rather than on the host
    start = time.perf_counter()
    acc = 0
    for k in range(40_000):
        acc += k * k
    for _ in range(10):
        integrate.quad(_integrand, 0.0, 6.0)
    for _ in range(4):
        np.fft.rfft(_ROWS, axis=1, out=_SPECTRUM)
        np.fft.irfft(_SPECTRUM, n=_ROWS.shape[1], axis=1, out=_BACK)
    return time.perf_counter() - start


def _on_each_cpu(fn) -> list:
    """``fn()`` pinned in turn to each CPU this process may use (at most
    :data:`MAX_CPUS`), then the affinity is restored. The CPUs of one host
    do not slow down together, and pool workers run on all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    values = []
    try:
        for cpu in cpus[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            values.append(fn())
    finally:
        os.sched_setaffinity(0, cpus)
    return values


def pin_to_one_cpu() -> None:
    """Keep this process (and the processes it starts) on one CPU, so that
    the host-speed samples measure the CPU a single-process workload runs
    on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def slowdown() -> float:
    """How much slower than the reference the host runs now: the kernel's
    median time on each usable CPU, averaged, over :data:`REFERENCE_S`."""
    per_cpu = _on_each_cpu(
        lambda: statistics.median(_kernel() for _ in range(REPEATS)))
    return statistics.fmean(per_cpu) / REFERENCE_S


class SpeedLog:
    """Slowdown samples with the times they were taken."""

    def __init__(self):
        self.times = []
        self.values = []

    def sample(self) -> None:
        value = slowdown()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def sample_if_stale(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] > MAX_AGE_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean of the last sample taken before ``start`` and the first
        taken after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        return (self.values[max(before, 0)]
                + self.values[min(after, len(self.values) - 1)]) / 2.0
