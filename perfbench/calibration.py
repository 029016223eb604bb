"""Host-speed calibration: a fixed probe timed around every operation.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.9x for stretches of seconds to minutes, as other tenants come and go.
A stretch can cover a whole run, and then no statistic within the run can
tell the program's speed from the host's.  The pattern fits a changing core
clock: pure interpreter loops slow down most, work bound by memory least.

So the client also times `probe`, a fixed piece of work that does not touch
pcekit (an interpreter loop over small ints, word operations on a 64 KiB
Python int, and numpy butterflies on a 512 KiB array), right before and
right after every operation and set-up.  No change to pcekit can move it.
For a workload whose time goes mostly to numpy kernels over arrays larger
than a core's cache, each sample also times `stream`, two passes over a 16 MiB
array, so that the sample slows down with the host as that workload does.
A time the benchmark reports is the measured time scaled by
``reference / r``, where ``r`` is the median sample within `WINDOW_S` of
the interval and ``reference`` is what a sample takes on the 2-vCPU,
2.1 GHz host the benchmark was built on when that host runs at full speed:
the time the operation would take there.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

import numpy as np

# The times of `probe` and `stream` on the host the benchmark was built on,
# at full speed (the 5th percentile over 40 s).
REFERENCE_S = 0.0024
STREAM_REFERENCE_S = 0.0023
# A time is scaled by the median probe time within this many seconds of
# either end of its interval, and by at least `MIN_SAMPLES` samples.
WINDOW_S = 0.5
MIN_SAMPLES = 2

_A = random.Random(1).getrandbits(1 << 19)
_B = random.Random(2).getrandbits(1 << 19)
_VECTOR = np.arange(1 << 16, dtype=np.int64)
_LARGE = np.arange(1 << 21, dtype=np.int64)


def probe() -> None:
    """A fixed amount of interpreter, big-int and numpy work."""
    x, total, seen = 1, 0, {}
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        total += (x >> 7).bit_count()
        seen[x & 255] = i
    a, b = _A, _B
    for _ in range(12):
        a = (a ^ (b >> 3)) & ~b | (b << 1)
        total += (a & b).bit_count()
    v = _VECTOR
    for _ in range(4):
        w = v.reshape(4, -1)
        v = np.concatenate([w[0] + w[1] + w[2] + w[3], w[0] - w[1], w[0] - w[2], w[0] - w[3]])


def stream() -> None:
    """Two element-wise passes over a 16 MiB array."""
    w = _LARGE.reshape(2, -1)
    np.add(w[0], w[1])
    np.subtract(w[0], w[1])


def _touch() -> None:
    """Bring the probe's inputs into cache, so that its time does not depend
    on how much memory the operation before it went through."""
    (_A ^ _B).bit_count()
    _VECTOR.sum()


class Calibration:
    """The samples of one run, and the scale they give each interval.  With
    ``streams`` a sample is `probe` plus `stream`, otherwise `probe` alone."""

    def __init__(self, streams: bool = False):
        self.streams = streams
        self.reference = REFERENCE_S + (STREAM_REFERENCE_S if streams else 0.0)
        self.at: list[float] = []  # midpoint of each sample, ascending
        self.took: list[float] = []

    def sample(self) -> None:
        """Take one sample.  The collector is paused, so that no pause for
        pcekit's garbage lands in it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            _touch()
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
            took = end - start
            if self.streams:
                _LARGE.sum()
                before = time.perf_counter()
                stream()
                took += time.perf_counter() - before
        finally:
            if enabled:
                gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(took)

    def scale(self, start: float, end: float) -> float:
        """The reference sample time over the median sample around
        [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if hi == lo:
            raise RuntimeError("no probe samples to calibrate against")
        return self.reference / statistics.median(self.took[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """The interval's length, scaled to the reference host's speed."""
        return (end - start) * self.scale(start, end)
