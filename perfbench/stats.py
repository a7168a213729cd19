"""Order statistics used by the report and the steadiness command."""

from __future__ import annotations

import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, and so only from 4 * TAIL_BEYOND samples on.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value, samples beyond), or None with fewer than
    4 * TAIL_BEYOND samples, where such a percentile would be no tail.
    """
    n = len(values)
    if n < 4 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, float(ordered[rank - 1]), n - rank
