"""Calibration kernel that rescales measured times to a nominal machine speed.

The shared 2-vCPU virtual machine this benchmark was written on changes
speed by up to 1.7x for seconds at a time: one engine replicate took
0.05 s or 0.085 s.  CPU time moves with wall time, so the cause is
contention on the host, not stolen time.  Medians over 30 s windows still
moved by 30%.  A fixed kernel timed next to each sample moves with the
machine: over ten seeds, the quartile spread (IQR over median) of a run's
wall_s was 9-29% raw and 4-4.5% once divided by this kernel.

Reported times are therefore ``measured * NOMINAL_S / kernel``: seconds on a
machine where this kernel takes ``NOMINAL_S``.  Raw seconds are printed
beside them.  The kernel is fixed benchmark code that calls nothing in
``src/``, so a change to the program moves scaled and raw times alike.
"""

from __future__ import annotations

import heapq
import math
import random
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005  # kernel time in that machine's fast state, rounded
EVERY_S = 0.5  # re-time the kernel when the last timing is older than this


def kernel() -> float:
    """Median of three timings of the fixed work; one timing alone can catch a cold cache."""
    return sorted(_work() for _ in range(3))[1]


def _work() -> float:
    """Seconds taken by fixed work in the program's mix: an interpreted loop
    of heap, tuple and scalar maths with small-array numpy calls, then a few
    array reductions.  No ``np.dot``: it goes through a threaded BLAS, which
    stalls for milliseconds when the other core is busy."""
    t0 = perf_counter()
    rng = random.Random(12345)
    heap = []
    acc = 0.0
    pts = np.arange(12.0).reshape(6, 2)
    for i in range(400):
        x = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        heapq.heappush(heap, (rng.random(), i))
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        cell = np.floor((arr - 0.3) / 1.0).astype(int)
        acc += float(np.min(np.sum((pts - arr) ** 2, axis=1))) + math.hypot(*x) + int(cell[0])
    while heap:
        heapq.heappop(heap)
    a = np.arange(20000.0)
    for _ in range(8):
        acc += float((a * a).sum())
    dt = perf_counter() - t0
    if not acc > 0:
        raise RuntimeError("calibration kernel produced no work")
    return dt


class Clock:
    """Latest kernel time, refreshed when older than ``EVERY_S``."""

    def __init__(self):
        self.last = kernel()
        self.at = perf_counter()

    def kernel_s(self) -> float:
        if perf_counter() - self.at > EVERY_S:
            self.last = kernel()
            self.at = perf_counter()
        return self.last

    def timed(self, fn, *args):
        """(result, raw seconds, scaled seconds) of ``fn(*args)``.

        The kernel is timed before the call and, if the call outlasts
        ``EVERY_S``, again after it; the scale uses their mean.
        """
        before = self.kernel_s()
        t0 = perf_counter()
        out = fn(*args)
        raw = perf_counter() - t0
        after = self.kernel_s()
        return out, raw, raw * NOMINAL_S / (0.5 * (before + after))
