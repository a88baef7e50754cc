"""Order statistics used for every reported timing."""
from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), the rule the acceptance check uses: statistics.quantiles(n=4)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, 0 < p <= 100."""
    if not values or not 0 < p <= 100:
        raise ValueError("percentile needs values and 0 < p <= 100")
    s = sorted(values)
    return float(s[max(0, math.ceil(p / 100.0 * len(s)) - 1)])
