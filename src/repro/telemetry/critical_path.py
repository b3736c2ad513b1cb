"""Per-decision critical paths from a trace forest.

Given the closed spans of a run, attribute every elementary interval of
each trace's lifetime to exactly one hop: at any instant the *deepest*
active span wins (ties broken by later start, then tracer sequence), so
``pdp.evaluate`` time is charged to the evaluator, not double-counted
under the enclosing ``pep.dispatch`` attempt; intervals covered by no
span (the gap between enforcement and the audit events, block waits
between mempool admission and inclusion) are charged to ``wait``.

A *decision trace* is one rooted in a ``pep.request`` span.  Its extent
runs from the root's start to the last span's end — the full monitored
life of the decision, through chain commit and Analyser verification —
which is why "p99 decision = 62 % chain wait" falls out of the sweep
naturally rather than from any hop-specific accounting.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.metrics.recorder import percentile
from repro.telemetry.tracing import Span

ROOT_SPAN = "pep.request"
WAIT = "wait"


class CriticalPathAnalyser:
    """Boundary-sweep time attribution over closed spans, per trace."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self._traces: dict[str, list[Span]] = {}
        for span in spans:
            if not span.closed:
                continue
            self._traces.setdefault(span.trace_id, []).append(span)

    def decision_traces(self) -> list[str]:
        """Trace ids rooted in a ``pep.request`` span, sorted by extent."""
        decisions = [
            trace_id for trace_id, spans in self._traces.items()
            if any(span.name == ROOT_SPAN for span in spans)
        ]
        return sorted(decisions,
                      key=lambda t: (self.extent(t)[1] - self.extent(t)[0], t))

    def extent(self, trace_id: str) -> tuple[float, float]:
        spans = self._traces[trace_id]
        return (min(span.start for span in spans),
                max(span.end for span in spans))

    def _depths(self, spans: list[Span]) -> dict[str, int]:
        by_id = {span.span_id: span for span in spans}
        depths: dict[str, int] = {}

        def depth_of(span_id: str) -> int:
            cached = depths.get(span_id)
            if cached is not None:
                return cached
            span = by_id[span_id]
            if span.parent_id is None or span.parent_id not in by_id:
                value = 0
            else:
                value = depth_of(span.parent_id) + 1
            depths[span_id] = value
            return value

        for span in spans:
            depth_of(span.span_id)
        return depths

    def attribution(self, trace_id: str) -> dict[str, float]:
        """Seconds of the trace's extent charged to each hop name.

        Boundary sweep: every span start/end is a boundary; each
        elementary interval goes to the deepest span covering it, or to
        ``wait`` when none does.  The values sum to the trace extent.
        """
        spans = self._traces[trace_id]
        depths = self._depths(spans)
        boundaries = sorted({span.start for span in spans}
                            | {span.end for span in spans})
        shares: dict[str, float] = {}
        for low, high in zip(boundaries, boundaries[1:]):
            if high <= low:
                continue
            active = [span for span in spans
                      if span.start <= low and span.end >= high]
            if not active:
                shares[WAIT] = shares.get(WAIT, 0.0) + (high - low)
                continue
            winner = max(active, key=lambda span: (
                depths[span.span_id], span.start, span.seq))
            shares[winner.name] = shares.get(winner.name, 0.0) + (high - low)
        return shares

    def percentile_trace(self, fraction: float) -> Optional[str]:
        """The decision trace at the given extent-duration percentile."""
        decisions = self.decision_traces()
        if not decisions:
            return None
        durations = [self.extent(t)[1] - self.extent(t)[0] for t in decisions]
        target = percentile(durations, fraction)
        # decision_traces() is extent-sorted: pick the first at/after target.
        for trace_id, duration in zip(decisions, durations):
            if duration >= target:
                return trace_id
        return decisions[-1]

    def attribution_table(self, fractions: tuple = (0.5, 0.99)) -> list[dict]:
        """One row per requested percentile: total plus per-hop share.

        Hops are reported as ``<name>_s`` (seconds) and ``<name>_pct``
        columns; the benchmark prints this through ``format_table`` and
        persists it in ``BENCH_e17.json``.
        """
        rows: list[dict] = []
        for fraction in fractions:
            trace_id = self.percentile_trace(fraction)
            if trace_id is None:
                continue
            start, end = self.extent(trace_id)
            total = end - start
            shares = self.attribution(trace_id)
            row: dict = {
                "percentile": f"p{int(round(fraction * 100))}",
                "trace": trace_id,
                "total_s": round(total, 6),
            }
            for hop, seconds in sorted(shares.items(),
                                       key=lambda item: -item[1]):
                row[f"{hop}_s"] = round(seconds, 6)
                row[f"{hop}_pct"] = (round(100.0 * seconds / total, 1)
                                     if total > 0 else 0.0)
            rows.append(row)
        return rows

    def mean_attribution(self) -> dict[str, float]:
        """Average per-hop *fraction* across all decision traces."""
        decisions = self.decision_traces()
        if not decisions:
            return {}
        totals: dict[str, float] = {}
        for trace_id in decisions:
            start, end = self.extent(trace_id)
            span_total = end - start
            if span_total <= 0:
                continue
            for hop, seconds in self.attribution(trace_id).items():
                totals[hop] = totals.get(hop, 0.0) + seconds / span_total
        return {hop: value / len(decisions)
                for hop, value in sorted(totals.items())}


__all__ = ["CriticalPathAnalyser", "ROOT_SPAN", "WAIT"]
