"""Summary statistics shared by every workload.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_TAIL_SAMPLES` samples beyond it, always with the
sample count, so a tail figure is never quoted from a handful of points.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

MIN_TAIL_SAMPLES = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)


def supported_tail(n: int) -> float | None:
    """Highest candidate percentile with >= MIN_TAIL_SAMPLES samples above it."""
    for percentile in TAIL_PERCENTILES:
        if n * (100.0 - percentile) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return percentile
    return None


def summarize(samples) -> dict:
    """Median, p99, and the highest well-supported tail percentile.

    ``p99`` is always reported (it is a named metric); ``p99_supported``
    says whether at least ten samples lie beyond it.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": math.nan, "p95": math.nan, "p99": math.nan, "tail_pct": None,
                "tail": math.nan, "p99_supported": False, "mean": math.nan}
    tail_pct = supported_tail(n)
    return {
        "n": n,
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50.0)),
        "p95": float(np.percentile(values, 95.0)),
        "p99": float(np.percentile(values, 99.0)),
        "p99_supported": n * 0.01 >= MIN_TAIL_SAMPLES - 1e-9,
        "tail_pct": tail_pct,
        "tail": float(np.percentile(values, tail_pct)) if tail_pct is not None else math.nan,
    }


def median(values) -> float:
    return float(statistics.median(values))


def relative_iqr(values) -> float:
    """Quartile distance over the median (the benchmark's spread measure)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
