"""Telemetry plane: causal tracing and critical paths.

See :mod:`repro.telemetry.tracing` for the propagation protocol and the
determinism contract, and :mod:`repro.telemetry.critical_path` for
per-decision time attribution.  A run's counters are read through
``MonitoredFederation.run_summary()``.  ``docs/observability.md`` is the
narrative chapter.
"""

from repro.telemetry.critical_path import CriticalPathAnalyser
from repro.telemetry.stack import StackTelemetry
from repro.telemetry.tracing import (
    SPAN_FORMAT,
    Span,
    SpanRecorder,
    TraceContext,
    Tracer,
    chrome_trace,
    spans_to_json,
    validate_chrome_trace,
)

__all__ = [
    "SPAN_FORMAT",
    "TraceContext",
    "Span",
    "SpanRecorder",
    "Tracer",
    "spans_to_json",
    "chrome_trace",
    "validate_chrome_trace",
    "CriticalPathAnalyser",
    "StackTelemetry",
]
