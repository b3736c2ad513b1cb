"""Order statistics over latency samples."""

from __future__ import annotations

import math

from repro.common.errors import ValidationError


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile over pre-sorted values."""
    if not sorted_values:
        raise ValidationError("percentile of empty series")
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction must be in [0,1]: {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return sorted_values[low]
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight
