"""Sample statistics of the benchmark: percentiles, the supported tail, spreads.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, so a tail figure is never read off a handful of
calls. Percentiles are expressed in per mille to keep the rule in integers.
"""

from __future__ import annotations

import math
import statistics

TAIL_PER_MILLE = (900, 990, 999)
MIN_BEYOND = 10


def tail_per_mille(n_samples: int) -> int | None:
    """Highest tail percentile (per mille) with >= 10 of n samples beyond it.

    p90 needs 100 samples, p99 1000, p99.9 10000; None below 100.
    """
    best = None
    for pm in TAIL_PER_MILLE:
        if n_samples * (1000 - pm) >= MIN_BEYOND * 1000:
            best = pm
    return best


def percentile(values, per_mille: int) -> float:
    """Linear-interpolated percentile, the same rule as numpy's default."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * per_mille / 1000.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def relative_spread(values) -> float:
    """Interquartile distance over the median, as statistics.quantiles gives it."""
    q1, _, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / statistics.median(values)
