"""Statistics helpers for benchmark reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass
class Summary:
    mean: float
    p99: float
    std: float
    count: int

    def __repr__(self) -> str:
        return f"Summary(mean={self.mean:.3f}, p99={self.p99:.3f}, std={self.std:.3f}, n={self.count})"


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (pct in [0, 100])."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def summarize(values: Sequence[float]) -> Summary:
    """Mean / P99 / population standard deviation, as netperf reports."""
    if not values:
        raise ValueError("no values")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return Summary(mean=mean, p99=percentile(values, 99.0), std=math.sqrt(variance), count=n)
