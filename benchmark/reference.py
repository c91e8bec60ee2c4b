"""A fixed reference kernel that measures the speed of the machine at the moment.

The shared 2-core host this benchmark was tuned on changes speed by itself,
by up to 1.65x, in stretches from a fraction of a second to minutes.  Every
timing metric is therefore divided by the time of this kernel, run right
beside the work it scales, and multiplied by ``REF_MS``: the result is the
time the work would take on a machine where the kernel takes ``REF_MS``.
The kernel is plain Python, uses nothing of ``oadiag`` and never changes,
so a change to the program moves the scaled time in the same proportion as
the raw one.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The kernel's nominal time: scaled times are milliseconds on a machine where
# kernel() takes this long (about its time on the slow phase of that host).
REF_MS = 10.0
ITERATIONS = 100_000


def kernel() -> int:
    """Interpreter-bound integer work of fixed size; returns its checksum."""
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return total


def time_ms() -> float:
    """Wall time of one kernel() call, in ms."""
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


def median_ms(runs: int) -> float:
    """Median wall time of ``runs`` kernel() calls, in ms."""
    return statistics.median(time_ms() for _ in range(runs))


def scale(time: float, ref_ms: float) -> float:
    """``time`` (in any unit) measured while the kernel took ``ref_ms``, at the nominal kernel speed."""
    return time * REF_MS / ref_ms
