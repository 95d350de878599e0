"""Percentiles reported together with the number of samples behind them."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple


class Percentile(NamedTuple):
    value: float
    samples: int


def percentile(values: Sequence[float], pct: float) -> Percentile:
    """The pct-th percentile, interpolated linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= pct <= 100:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return Percentile(value, len(ordered))
