"""Machine-speed calibration for timings taken on a shared host.

On a shared 2-core host the same gridprobe operation can take anywhere
from 1x to 1.9x its fastest time, in phases that last from under a
second to about a minute, because other tenants compete for the physical
cores and their caches. A fixed pure-Python reference kernel slows down
with it. The gauge times that kernel right before every measured piece
of work and rescales the piece to a nominal machine on which the kernel
takes NOMINAL_MS:

    calibrated = measured * NOMINAL_MS / (kernel time just before)

Pairing each piece with its own sample follows phase changes that a
sample every few seconds misses. The kernel sorts, buckets and
intersects a few thousand objects, like the package's own dict and set
work, and runs with the garbage collector off, so objects the program
keeps alive cannot slow it down. Raw durations are kept next to the
calibrated ones in the full result.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Kernel time on the host the baseline was taken on (2-core Intel Xeon
# KVM guest, Python 3.11) in its fast phase; calibrated durations read as
# wall time on that machine when nothing else competes for it.
NOMINAL_MS = 4.5


def reference_kernel(n: int = 3000) -> int:
    """Sort, bucket, intersect and index n seeded random floats."""
    rng = random.Random(12345)
    values = [rng.random() for _ in range(n)]
    ranked = sorted(enumerate(values), key=lambda kv: (kv[1], kv[0]))
    buckets: dict[int, set[int]] = {}
    for i, v in ranked:
        buckets.setdefault(int(v * (n // 50)), set()).add(i)
    sets = [frozenset(s) for s in buckets.values()]
    overlap = 0
    for a in sets:
        for b in sets[:20]:
            overlap += len(a & b)
    table = {i: float(v) for i, v in enumerate(values)}
    return overlap + len(table)


class SpeedGauge:
    """Times the reference kernel; keeps every sample in ms."""

    def __init__(self):
        self.samples: list[float] = []

    def scale(self) -> float:
        """Sample now; the factor for a duration measured next."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            ms = 1000.0 * (time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(ms)
        return NOMINAL_MS / ms

    def mean_factor(self) -> float:
        """Factor for totals accumulated over the whole run."""
        return NOMINAL_MS / statistics.fmean(self.samples)


class Stopwatch:
    """Accumulates raw and calibrated time over pieces of work.

    Without a gauge the calibrated time equals the raw time.
    """

    def __init__(self, gauge: SpeedGauge | None):
        self.gauge = gauge
        self.raw = 0.0
        self.calibrated = 0.0

    def run(self, fn, *args, **kwargs):
        factor = self.gauge.scale() if self.gauge is not None else 1.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - t0
            self.raw += took
            self.calibrated += took * factor
