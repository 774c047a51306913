"""Times in reference seconds: scaled by the machine's current speed.

On a shared machine the speed of one core drifts by up to a factor of
two over minutes, with the same work taking 5 s in one run and 11 s a
few minutes later.  So every timed phase is bracketed by calibrations:
a fixed computation that uses numpy and plain Python only, never the
library under test, and mixes what the workloads do (counter-based
random numbers, small-array indexing, a sorted search, a 1D
convolution, 2D FFTs, tiny matrix products, dict and list work).  A
phase's time is reported in reference seconds,

    raw seconds * REFERENCE_CHUNK_S / (mean chunk time around the phase),

the time it would take on a machine where one calibration chunk takes
``REFERENCE_CHUNK_S`` seconds.  A slower library reads slower on any
machine; a slower machine cancels out.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_CHUNK_S = 0.2
CALIBRATION_S = 0.5


def _python_part(n: int) -> int:
    counts, total = {}, 0
    for j in range(n):
        key = (j % 17, j % 5)
        counts[key] = counts.get(key, 0) + j
        total += len([k for k in key if k])
    return total + counts[(3, 3)]


def _chunk() -> float:
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 0],
                                                           dtype=np.uint64)))
    cdf = np.cumsum(np.full(441, 1.0 / 441))
    profile = np.linspace(1.0, 0.0, 3000)
    weights = np.full(257, 1.0 / 257)
    grid = gen.random((256, 256))
    big = gen.random(250_000)
    normals = gen.random((3, 2))
    acc = 0.0
    for i in range(20):
        u = gen.random((80, 80))
        ai, aj = np.nonzero(u < 0.5)
        idx = np.searchsorted(cdf, u[ai, aj], side="right")
        conv = np.convolve(profile * profile, weights, mode="valid")
        spec = np.fft.irfft2(np.fft.rfft2(grid) * 0.5, s=grid.shape)
        inside = sum(bool(np.all(normals @ u[k % 80, :2] <= 0.7))
                     for k in range(200))
        acc += (float(conv[i]) + int(idx[0]) + spec[0, 0] + inside
                + float((big * 1.0001 + 0.5).sum()) + _python_part(2000))
    return acc


def chunk_seconds() -> float:
    """Mean wall time of one calibration chunk over CALIBRATION_S."""
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < CALIBRATION_S:
        _chunk()
        n += 1
    return (time.perf_counter() - start) / n


class ReferenceTimer:
    """Times calls and scales each by the calibrations just before and
    just after it."""

    def __init__(self):
        self.last = chunk_seconds()

    def time(self, fn, *args):
        """(result, raw seconds, reference seconds) of fn(*args)."""
        t = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t
        before, self.last = self.last, chunk_seconds()
        return out, raw, raw * 2.0 * REFERENCE_CHUNK_S / (before + self.last)
