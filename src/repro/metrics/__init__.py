"""Measurement utilities shared by tests and benchmarks.

- :func:`percentile` — linear-interpolation order statistics,
- :class:`DetectionScorer` — detection rate / latency / false-positive
  aggregation over attack records,
- :func:`format_table` — aligned plain-text tables, the output format of
  every benchmark harness (mirrors how the paper would present results).
"""

from repro.metrics.recorder import percentile
from repro.metrics.detection import DetectionScorer, DetectionSummary
from repro.metrics.tables import format_table

__all__ = [
    "percentile",
    "DetectionScorer",
    "DetectionSummary",
    "format_table",
]
