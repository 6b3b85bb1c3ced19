"""Machine-speed probe: scales measured times to one nominal machine speed.

On a shared host the same code runs at speeds that differ by up to 2x
from one second to the next, and CPU time tracks wall time, so the work
itself is slowed, not descheduled.  While the benchmark measures, a
SIGALRM handler runs a small fixed kernel every PERIOD_S seconds in the
main thread, and in every process forked meanwhile (the runner's pool
workers), so it sees the speed of the CPUs the measured code runs on.
The kernel mimics the solver's hot loop (small-array numpy steps of the
dual ellipsoid) but shares no code with ecomp, so a faster program does
not make it faster.  A measured interval is multiplied by NOMINAL_S over
the mean kernel time seen around it -- the workers' samples when there
are any, else the main thread's; the mean, because a slow spell
lengthens the interval in proportion to its share of it.  The reported
figure is the time the interval would take when the kernel takes
NOMINAL_S.  Raw times stay in the run's details file.

Changing the kernel or NOMINAL_S changes every reported time: compare
runs only across commits that share this file.
"""

from __future__ import annotations

import bisect
import math
import mmap
import os
import signal
import statistics
import struct
from time import perf_counter

import numpy as np

PERIOD_S = 0.025         # one kernel run per 25 ms: about 2% of the run
WINDOW_S = 0.1           # samples this far outside an interval still count
NOMINAL_S = 5e-4         # typical sampled kernel time on a 2-vCPU Xeon VM

# Samples of forked children go to a shared anonymous map: one slot per
# child, each a count followed by (mid, time) pairs.
_SLOTS = 256
_SLOT_SAMPLES = 4096
_SLOT_BYTES = 8 + 16 * _SLOT_SAMPLES
_active = None           # the probe whose context is open
_hooks_installed = False

_BETA = np.full((3, 3), 0.5)
_G0 = np.array([0.3, -0.2, 0.1])


def kernel() -> float:
    """Twelve steps shaped like the dual ellipsoid's cut loop (3-D)."""
    n = 3
    x = np.ones(n)
    a = 4.0 * np.eye(n)
    for it in range(12):
        viol = _BETA * x[None, :] - x[:, None]
        np.fill_diagonal(viol, -np.inf)
        i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
        g = _G0 + 0.01 * (it + i - j)
        ag = a @ g
        gn = ag / math.sqrt(float(g @ ag))
        x = x - gn / (n + 1)
        a = (n * n) / (n * n - 1.0) * (a - (2.0 / (n + 1)) * np.outer(gn, gn))
        a = 0.5 * (a + a.T)
    return float(x.sum())


def _before_fork():
    if _active is not None:
        _active._slot += 1


def _after_fork_in_child():
    probe = _active
    if probe is not None and probe._slot < _SLOTS:
        signal.signal(signal.SIGALRM, probe._sample_child)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


class SpeedProbe:
    """Context manager sampling the kernel from SIGALRM handlers.

    Enter it in the main thread only; on exit it stops the timer and
    restores the previous handler.
    """

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self._previous = None
        self._slot = -1
        self._shared = mmap.mmap(-1, _SLOTS * _SLOT_BYTES)
        self._children = None

    def __enter__(self):
        global _active, _hooks_installed
        if not _hooks_installed:
            os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)
            _hooks_installed = True
        _active = self
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None
        return False

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.times.append(t1 - t0)

    def _sample_child(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        base = self._slot * _SLOT_BYTES
        (count,) = struct.unpack_from("q", self._shared, base)
        if count < _SLOT_SAMPLES:
            struct.pack_into("dd", self._shared, base + 8 + 16 * count, 0.5 * (t0 + t1), t1 - t0)
            struct.pack_into("q", self._shared, base, count + 1)

    def _child_samples(self):
        if self._children is None:
            pairs = []
            for slot in range(min(self._slot + 1, _SLOTS)):
                base = slot * _SLOT_BYTES
                (count,) = struct.unpack_from("q", self._shared, base)
                pairs.extend(struct.unpack_from("dd", self._shared, base + 8 + 16 * i)
                             for i in range(count))
            pairs.sort()
            self._children = ([m for m, _ in pairs], [t for _, t in pairs])
        return self._children

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured speed around [start, end].

        With pool workers' samples inside the interval, their mean speed:
        the workers share the work, so the interval shrinks with it.
        Otherwise the main thread's mean kernel time, which the interval
        grows with.
        """
        mids, times = self._child_samples()
        lo = bisect.bisect_left(mids, start)
        hi = bisect.bisect_right(mids, end)
        if lo < hi:
            return statistics.fmean(NOMINAL_S / t for t in times[lo:hi])
        mids, times = self.mids, self.times
        if not times:
            raise RuntimeError("no speed sample was taken")
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, end + WINDOW_S)
        if lo == hi:            # nothing close: take the nearest sample
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.fmean(times[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
