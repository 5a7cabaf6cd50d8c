"""Order statistics for benchmark samples."""
from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of values.

    Linear interpolation between the two closest ranks, the same rule as
    numpy's default: rank (n - 1) * q / 100 in the sorted sample.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(values) -> dict[str, float]:
    """Median, quartiles and sample count."""
    return {
        "median": percentile(values, 50),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }
