"""Summary statistics shared by the workloads."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    For ``n`` samples that is the order statistic with ten larger
    values, at percentile ``100 * (n - 10) / n``.  Below ``n = 21`` that
    percentile would not lie above the median, so the maximum is
    reported instead, marked by ``percentile = 100``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 2 * TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100.0, "n": n}
    index = n - TAIL_BEYOND - 1
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / n, "n": n}


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))

