"""Host-speed calibration for timings taken on a shared machine.

On a shared virtual machine the speed of a vCPU swings with what its
neighbours run: on the 2-vCPU Xeon (2.1 GHz) VM this benchmark was
defined on, the kernel below took anywhere from 8.2 to 13.9 ms within
four minutes, and every workload's operations slowed in step with it.
Those swings last from seconds to minutes, so a median over one run
cannot remove them.

The benchmark therefore brackets its timed operations with samples of
a fixed kernel -- interpreter dictionary work plus NumPy array sweeps,
the two kinds of work ``repro`` does -- and scales each operation's
measured seconds by ``REFERENCE_S`` over the median of the two samples
before and the two after it.  The result is seconds at the reference
host speed: a change to ``repro`` moves it exactly as it moves the raw
time, while a change in the host's speed cancels.  The kernel is part of
the benchmark and runs outside every timed region; raw seconds are
reported next to the normalized ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Seconds one kernel run takes on the reference host at its fast
#: steady state (median over quiet periods).
REFERENCE_S = 0.0085

_ARRAY = None


def _kernel() -> float:
    global _ARRAY
    import numpy

    if _ARRAY is None:
        _ARRAY = numpy.arange(400_000, dtype=numpy.float64)
    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        key = i % 257
        table[key] = table.get(key, 0) + i
    for _ in range(10):
        (_ARRAY * 1.5).sum()
    return time.perf_counter() - start


def sample() -> float:
    """One calibration sample: the median of three kernel runs."""
    return statistics.median(_kernel() for _ in range(3))


class HostSpeed:
    """Calibration samples taken between timed operations, in order."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def mark(self) -> int:
        """Take a sample; returns its index."""
        self.samples.append(sample())
        return len(self.samples) - 1

    def scale_at(self, index: int) -> float:
        """Scale for work timed between samples ``index`` and ``index + 1``.

        The median of the two samples on each side: a single sample
        spans only ~25 ms, so its neighbours steady it.
        """
        window = self.samples[max(0, index - 1):index + 3]
        return REFERENCE_S / statistics.median(window)
