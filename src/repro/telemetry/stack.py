"""Stack-wide telemetry: one tracer + one registry per federation.

``MonitoredFederation.build(telemetry=True)`` constructs a
:class:`StackTelemetry` against the finished stack.  Attachment is two
assignments — ``network.telemetry`` and ``plane.telemetry`` both point at
the shared :class:`~repro.telemetry.tracing.Tracer` — plus a set of
pull-based registry collectors wrapping the ``stats()`` surfaces every
subsystem already keeps.  Nothing about the stack's behaviour changes:
instrumented components check for a tracer and record spans in-process,
so a bare stack and a telemetry-attached one stay bit-identical
(``tests/test_neutrality.py`` pins decisions, alerts and the chain head).
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.critical_path import CriticalPathAnalyser
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


class StackTelemetry:
    """Tracer + metrics registry wired to a :class:`MonitoredFederation`."""

    def __init__(self, stack, max_spans: int = 250_000) -> None:
        self.stack = stack
        self.tracer = Tracer(stack.sim, max_spans=max_spans)
        self.registry = MetricsRegistry()
        #: End-to-end access latency, stamped at enforcement time so
        #: ``snapshot(window=...)`` can summarise a load phase.
        self.access_latency = self.registry.histogram(
            "pep.access_latency", "end-to-end access latency (s)")
        self.decisions = self.registry.counter(
            "pep.decisions", "enforced outcomes by decision")
        self._outcome_cursor = 0
        self._install()

    # -- wiring ----------------------------------------------------------------

    def _install(self) -> None:
        stack = self.stack
        network = stack.federation.network
        network.telemetry = self.tracer
        stack.plane.telemetry = self.tracer
        register = self.registry.register_collector
        register("network", network.stats.snapshot)
        register("plane", lambda: {**stack.plane.describe(),
                                   **stack.plane.stats()})
        register("peps", lambda: {
            name: {
                "enforced": len(pep.enforced),
                "timeouts": pep.timeouts,
                "failovers": pep.failovers,
                "churn_reroutes": pep.churn_reroutes,
            }
            for name, pep in sorted(stack.peps.items())
        })
        policy_plane = stack.policy_plane
        register("policy_plane", lambda: {
            **(policy_plane.describe() if hasattr(policy_plane, "describe")
               else {}),
            **policy_plane.stats(),
        })
        if stack.drams is not None:
            register("drams", stack.drams.stats)
        if stack.autoscaler is not None:
            register("autoscaler", stack.autoscaler.describe)
        register("tracing", self.tracer.stats)

    # -- pushed series ---------------------------------------------------------

    def sync(self) -> int:
        """Pull new enforced outcomes into the pushed instruments.

        Outcomes accumulate on the stack as the run progresses; ``sync``
        is cursor-based so calling it repeatedly (every snapshot does)
        never double-counts.  Returns how many outcomes were absorbed.
        """
        outcomes = self.stack.outcomes
        fresh = outcomes[self._outcome_cursor:]
        self._outcome_cursor = len(outcomes)
        for outcome in fresh:
            self.access_latency.observe(
                outcome.latency, at=outcome.enforced_at,
                tenant=outcome.request.origin_tenant)
            self.decisions.inc(decision=outcome.decision.decision,
                               status=outcome.decision.status_code)
        return len(fresh)

    # -- reporting -------------------------------------------------------------

    def snapshot(self, window: Optional[tuple] = None) -> dict:
        """The unified telemetry tree: instruments + every collected surface."""
        self.sync()
        tree = self.registry.snapshot(window=window)
        tree["sim_now"] = self.stack.sim.now
        return tree

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
