"""Summary statistics for benchmark timings.

Every timing is reported as a median and a tail.  The tail is the
highest percentile that still has at least :data:`MIN_BEYOND` samples
beyond it, so a tail never rests on a handful of outliers; the
percentile used and the sample count travel with the value.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A tail percentile must have at least this many samples above it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail value with the percentile it came from and its sample count.

    ``percentile`` is ``None`` when there are too few samples for the
    rule (``n <= MIN_BEYOND``); ``value`` then falls back to the maximum.
    """

    value: float
    percentile: float | None
    n: int

    def describe(self) -> str:
        if self.percentile is None:
            return f"max of n={self.n} (too few samples for a tail)"
        return f"p{self.percentile:g} of n={self.n}"


def tail(samples: list[float], min_beyond: int = MIN_BEYOND) -> Tail:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    With ``n`` sorted samples, the sample at rank ``n - min_beyond``
    (1-based) has exactly ``min_beyond`` samples above it; its
    percentile is ``100 * (n - min_beyond) / n``, floored to a whole
    percent so it reads as a familiar pXX.  The value is the sample at
    that percentile's rank (nearest-rank definition).
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= min_beyond:
        return Tail(value=ordered[-1], percentile=None, n=n)
    percentile = math.floor(100.0 * (n - min_beyond) / n)
    rank = max(1, math.ceil(percentile / 100.0 * n))  # nearest rank, 1-based
    return Tail(value=ordered[rank - 1], percentile=float(percentile), n=n)


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of an empty sample")
    return statistics.median(samples)


def mean(samples: list[float]) -> float:
    if not samples:
        raise ValueError("mean of an empty sample")
    return statistics.fmean(samples)
