"""Percentiles under the ten-samples-beyond rule, the interquartile mean
of a run's rates, and run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def rank_index(n: int, q: float) -> int:
    """0-based nearest-rank index of percentile *q* in *n* sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    # Rounding first keeps float error from pushing an exact rank up one
    # (99.9 / 100 * 10000 is 9990.000000000002).
    return max(0, math.ceil(round(q / 100.0 * n, 9)) - 1)


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly beyond percentile *q*."""
    return n - 1 - rank_index(n, q)


def supported(n: int, q: float) -> bool:
    return n >= 1 and samples_beyond(n, q) >= MIN_BEYOND


def min_samples_for(q: float) -> int:
    """Smallest sample count for which percentile *q* is supported."""
    n = 1
    while not supported(n, q):
        n += 1
    return n


def percentile(values, q: float) -> float:
    """Nearest-rank percentile *q* of *values*."""
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), q)]


def interquartile_mean(values) -> float:
    """Mean of *values* without their lowest and highest quarter.

    A run's rate over its timed phase: a host stall or burst shorter
    than a quarter of the run falls in a dropped quarter, while a longer
    change of host speed moves the figure in proportion to its length
    instead of flipping it, as a median would.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
