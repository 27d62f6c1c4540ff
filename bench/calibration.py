"""The host's speed during a run, from a fixed calibration kernel.

The benchmark's host is shared: for seconds to minutes at a time every
operation runs up to ~1.6x slower, and CPU time slows with it, so neither
wall time nor CPU time repeats from run to run.  `Clock` runs a small kernel
that does not touch `wep4` (the benchmark's own Laurent algebra, complex
powers and a numpy evaluation, the same mix of work as the program) between
operations, about once per 100 ms of operation time, and times it.  A time
measured at moment t is reported in reference seconds:

    reference seconds = wall seconds * KERNEL_REF_S / (median kernel time near t)

i.e. the time the host would have taken had the kernel run in
KERNEL_REF_S.  A change to the program moves the reported times in full;
a change in the host's speed cancels, as far as the program slows as the
kernel does.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

from reference import Member

KERNEL_REF_S = 3e-4   # the kernel time that defines the reference host (its typical time here)
SAMPLE_EVERY_S = 0.1  # operation time between kernel samples
MAX_SAMPLES = 20      # kernel samples taken at once, after a long operation
WINDOW_S = 0.25       # samples this close before or after a timing scale it
NEAREST = 5           # fewest samples that scale one timing

_POINTS = np.linspace(0.5, 2.0, 64) * np.exp(1j * np.linspace(0.0, 6.0, 64))


def kernel() -> float:
    member = Member(3, 5, 0.5 - 2j)
    total = math.fsum(abs(c * complex(w) ** k) for w in _POINTS[:16] for k, c in member.curve[0].items())
    return total + float(member.positions(_POINTS).sum())


class Clock:
    """Kernel samples taken during one run, and the scale they give a timing."""

    def __init__(self):
        self.when: list[float] = []   # end of each kernel sample
        self.took: list[float] = []   # its duration
        self._owed = 0.0

    def sample(self, count: int = NEAREST) -> None:
        for _ in range(count):
            kernel()  # untimed, so that what ran before does not set the timed run's caches
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.when.append(end)
            self.took.append(end - start)

    def after(self, seconds: float) -> None:
        """Call between operations with the time the last one took."""
        self._owed += seconds
        count = min(MAX_SAMPLES, int(self._owed / SAMPLE_EVERY_S))
        if count:
            self.sample(count)
            self._owed = 0.0

    def scale(self, start: float, seconds: float) -> float:
        """KERNEL_REF_S over the median kernel time around a timing: the
        samples within WINDOW_S of it, or the NEAREST ones if fewer."""
        lo = bisect.bisect_left(self.when, start - WINDOW_S)
        hi = bisect.bisect_right(self.when, start + seconds + WINDOW_S)
        if hi - lo < NEAREST:
            mid = start + seconds / 2
            i = bisect.bisect(self.when, mid)
            window = range(max(0, i - NEAREST), min(len(self.when), i + NEAREST))
            near = sorted(window, key=lambda j: abs(self.when[j] - mid))[:NEAREST]
            return KERNEL_REF_S / statistics.median(self.took[j] for j in near)
        return KERNEL_REF_S / statistics.median(self.took[lo:hi])
