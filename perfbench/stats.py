"""Percentiles under the ten-samples-beyond rule, and run summaries."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

__all__ = ["percentile", "percentile_of_counts", "reportable", "quartiles"]

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; fewer make its value one or two outliers.
MIN_BEYOND = 10


def reportable(count: int, q: float) -> bool:
    """True when *count* samples leave at least :data:`MIN_BEYOND`
    samples beyond the *q*-quantile (0 < q < 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    return count - math.ceil(q * count) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank *q*-quantile of *samples*, or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    count = len(samples)
    if not reportable(count, q):
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * count) - 1)]


def percentile_of_counts(counts: Sequence[int], q: float,
                         unit: float) -> Optional[float]:
    """The nearest-rank *q*-quantile of a histogram whose bucket *i*
    counts samples of value ``i * unit``, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    count = sum(counts)
    if not reportable(count, q):
        return None
    rank = max(1, math.ceil(q * count))
    seen = 0
    for bucket, n in enumerate(counts):
        seen += n
        if seen >= rank:
            return bucket * unit
    raise AssertionError("unreachable: rank <= count")


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them, plus the spread ``(q3 - q1) / median``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }
