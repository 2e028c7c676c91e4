"""Order statistics used by the benchmark's reports and spread checks."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between
    the two closest ranks (NumPy's default ``linear`` method).

    ``percentile(v, 50)`` is the median; ``percentile(v, 100)`` the max.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, with the
    quartiles :func:`statistics.quantiles` gives (``n=4``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
