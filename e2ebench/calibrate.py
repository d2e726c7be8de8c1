"""CPU-speed calibration for timings taken on a shared machine.

On a small shared virtual machine the speed of a pure-Python loop swings
by 20-30% from one second to the next and drifts over minutes, far more
than the bounds a regression gate needs.  Every end-to-end timing of the
benchmark is therefore taken right after :func:`speed_factor` has timed a
fixed reference loop, and reported in *reference seconds*: the measured
seconds divided by ``reference loop time / NOMINAL_S``.  A program change
moves a reference-second timing exactly as it moves the raw one; a slow
phase of the machine moves the loop too and cancels out.  The raw
timings and the factors are printed beside the metrics.
"""

from __future__ import annotations

import time

#: seconds one reference loop takes on the reference machine (2 vCPUs,
#: CPython 3.11); reference seconds are seconds at that speed
NOMINAL_S = 0.010


def reference_loop() -> float:
    """Seconds for a fixed dict/set/tuple workload (the evaluator's mix)."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(20_000):
        key = (i % 997, "x" + str(i % 31))
        table[key] = table.get(key, 0) + 1
    seen = set()
    for key in table:
        seen.add(hash(key) & 1023)
    return time.perf_counter() - start


def speed_factor() -> float:
    """Current slowness relative to the reference machine (1.0 = nominal)."""
    return min(reference_loop(), reference_loop()) / NOMINAL_S
