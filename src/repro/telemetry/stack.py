"""Stack-wide telemetry: one tracer per federation.

``MonitoredFederation.build(telemetry=True)`` constructs a
:class:`StackTelemetry` against the finished stack.  Attachment is two
assignments — ``network.telemetry`` and ``plane.telemetry`` both point at
the shared :class:`~repro.telemetry.tracing.Tracer`.  Nothing about the
stack's behaviour changes: instrumented components check for a tracer and
record spans in-process, so a bare stack and a telemetry-attached one stay
bit-identical (``tests/test_neutrality.py`` pins decisions, alerts and the
chain head).  The run's counters and outcomes are read through
:meth:`~repro.harness.MonitoredFederation.run_summary`, which adds the
tracer's span counters when telemetry is attached.
"""

from __future__ import annotations

from repro.telemetry.critical_path import CriticalPathAnalyser
from repro.telemetry.tracing import Tracer


class StackTelemetry:
    """Tracer wired to a :class:`MonitoredFederation`, plus its exporters."""

    def __init__(self, stack) -> None:
        self.stack = stack
        self.tracer = Tracer(stack.sim)
        stack.federation.network.telemetry = self.tracer
        stack.plane.telemetry = self.tracer

    def flush(self) -> int:
        """Close leftover spans (end of run, before export/analysis)."""
        return self.tracer.flush()

    def spans_json(self) -> dict:
        """The archival ``repro-spans/v1`` document for this run."""
        return self.tracer.recorder.to_json()

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (load in chrome://tracing / Perfetto)."""
        return self.tracer.recorder.to_chrome()

    def critical_paths(self) -> CriticalPathAnalyser:
        """Critical-path analyser over this run's closed spans."""
        return CriticalPathAnalyser(self.tracer.recorder.spans)


__all__ = ["StackTelemetry"]
