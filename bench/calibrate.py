"""Calibration of timings against the speed of the machine at that moment.

On a 2-vCPU Intel Xeon virtual machine that shares its cores with other
tenants, the same query, repeated for four minutes, took between 61 and
98 ms depending on the moment, and 20-second windows of it spread by 0.2
(quartile distance over median).  No run length makes raw wall times steady
against that.  So between queries the benchmark times a fixed pure-Python
kernel that does not use the package, and divides each query's latency by
the kernel's slowdown at that moment, measured against REFERENCE_S.  Raw
times are printed next to the calibrated ones.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List, Sequence

# Time of `reference_kernel` on that machine (Python 3.11.7) in its fast state.
REFERENCE_S = 0.0055


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the operations the package is made
    of: rational arithmetic, tuple keys and dictionary updates."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        x = Fraction(i % 97 - 48, i % 13 + 1)
        acc += x * x
        key = (i % 5, i % 7, x.numerator % 3)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def calibrate(latencies: Sequence[float], kernel_times: Sequence[float]) -> List[float]:
    """Latencies as they would read at the reference speed.

    ``kernel_times`` holds one kernel timing before the first query and one
    after each query.  The machine switches between fast and slow states
    within a second, so each query is calibrated by the two timings that
    bracket it, not by a longer window.
    """
    if len(kernel_times) != len(latencies) + 1:
        raise ValueError("need one kernel timing before and after each query")
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(latencies, kernel_times, kernel_times[1:])]
