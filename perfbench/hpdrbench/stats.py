"""Order statistics used by every workload."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile ``pct`` (0..100) of ``values``.

    Refuses (``ValueError``) a percentile with fewer than ten samples
    beyond it: a p99 needs at least 1,000 samples, a p50 at least 20.
    """
    n = len(values)
    beyond = n * (100.0 - pct) / 100.0
    if beyond < 10 - 1e-9:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond:.1f} beyond it; need >= 10"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median (no sample-count floor: used across rounds)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def windowed_percentile(values: Sequence[float], pct: float,
                        window: int = 1000) -> float:
    """Median over consecutive windows of ``window`` samples of each
    window's ``pct`` percentile (a short tail remainder joins the last
    window).  A burst of host noise then moves one window's value, not
    the reported one; every window still has the ten samples beyond
    its percentile that :func:`percentile` demands."""
    n = len(values)
    if n < window:
        raise ValueError(f"{n} samples do not fill one window of {window}")
    bounds = list(range(0, n - window + 1, window)) + [n]
    return median([percentile(values[a:b], pct)
                   for a, b in zip(bounds, bounds[1:])])
