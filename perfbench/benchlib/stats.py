"""Order statistics the benchmark reports timings with."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: candidate percentiles for the reported tail, highest last
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (the ``numpy`` default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile of :data:`TAIL_LADDER` that has at least
    :data:`MIN_BEYOND` samples beyond it, as ``(p, value, n)``.

    With fewer than ``2 * MIN_BEYOND`` samples not even the median
    qualifies; ``p`` is then 0 and ``value`` the median, so a caller
    can still print the sample count it rests on.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    best = 0.0
    for p in TAIL_LADDER:
        # rounded: 100 - 99.9 is not exactly 0.1 in binary
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            best = p
    value = percentile(values, best if best else 50.0)
    return best, value, n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

