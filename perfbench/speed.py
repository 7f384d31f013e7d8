"""In-process CPU speed probe, used to express wall times at a reference speed.

On a shared machine the speed of this process's CPU changes by tens of
percent within seconds as neighbours come and go, so raw wall times of the
same work spread by far more than any bound worth enforcing. The probe
samples the speed *during* the timed work: a profiling-timer signal
interrupts the process every ``INTERVAL_S`` of its CPU time, and the handler
times a fixed kernel of scalar NumPy calls (the kind of work the oracle and
the samplers do). The kernel runs twice per tick and only the second, warm
run is timed, so the sample reflects the CPU rather than the caches the
workload left behind.

``Probe.scaled(wall)`` removes the handler's own time from ``wall`` and
rescales the rest by ``REFERENCE_KERNEL_S / mean kernel time``: the result
is the time the work would take on a CPU where the kernel takes
``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.025
#: typical warm kernel time on the machine that defined the benchmark
#: (2 vCPU Intel Xeon, Python 3.11, numpy 2.4); sets the unit of scaled times
REFERENCE_KERNEL_S = 4.0e-4

_WAVE = np.linspace(0.0, 1.0, 32)


def kernel():
    acc = 0.0
    for i in range(120):
        x = np.asarray(0.5 + i * 1e-3, dtype=float)
        acc += float(np.exp(-0.5 * x * x)) + math.sqrt(i + 1.0)
    return acc + float(np.sum(np.cos(_WAVE * acc)))


class Probe:
    """Context manager sampling the kernel time while its block runs."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        t0 = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - t0)
        self.handler_s += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def kernel_s(self):
        """Mean warm kernel time, or the reference when nothing was sampled."""
        return sum(self.samples) / len(self.samples) if self.samples else REFERENCE_KERNEL_S

    def scaled(self, wall):
        return scaled(wall, self.handler_s, self.kernel_s)


def scaled(wall, handler_s, kernel_s):
    """``wall`` without the probe's own time, at the reference CPU speed."""
    return (wall - handler_s) * REFERENCE_KERNEL_S / kernel_s
