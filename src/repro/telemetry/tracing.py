"""Causal tracing over the simulated stack.

A :class:`TraceContext` names one node of a trace tree — ``(trace_id,
span_id)`` — and rides simnet :class:`~repro.simnet.network.Message`
objects as sideband metadata (the ``trace`` attribute, never the
payload): instrumented components *activate* a context around the work
they do, :meth:`Network.send` stamps the active context onto every
outgoing message, and delivery re-activates the stamped context around
``host.receive``.  That is the whole propagation protocol — a hop that
crosses a scheduled timer instead of a message captures the context
explicitly in its closure.

The determinism contract (pinned by ``tests/test_neutrality.py``) is that
tracing is **pure observation**:

- no RNG draws — span ids come from a tracer-local integer sequence,
  never :func:`repro.common.ids.new_id` (minted ids feed transaction
  identity and therefore chain hashes);
- no simnet traffic — spans are recorded in-process off the sim clock;
- no payload changes — ``Message.trace`` is excluded from equality and
  from :meth:`Message.size_bytes`, so wire stats and sampled latencies
  are untouched.

Exporters: :func:`spans_to_json` (the archival span-list format read by
``tools/trace2chrome.py``) and :func:`chrome_trace` (the Chrome
``trace_event`` JSON loadable in ``chrome://tracing`` / Perfetto —
processes are components, threads are traces).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Optional

SPAN_FORMAT = "repro-spans/v1"

#: Spans one recorder stores; later begins are counted as ``dropped``.
MAX_SPANS = 250_000

#: Sentinel: "parent from the active context" (``None`` means "no parent").
_INHERIT = object()


@dataclass(frozen=True)
class TraceContext:
    """One node of a trace tree, as carried across hops."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """A named, attributed interval of simulated time."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    component: str
    category: str
    start: float
    #: Tracer-local monotonic sequence — the deterministic tiebreak for
    #: spans sharing a start time (string span-ids sort lexically).
    seq: int
    end: Optional[float] = None
    status: str = "open"
    attrs: dict = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    @property
    def closed(self) -> bool:
        return self.end is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "component": self.component,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Bounded in-process span store (append at begin, mutate at end)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Spans begun past the cap (never stored; closing them still works).
        self.dropped = 0
        #: ``end()`` calls against an already-closed span — always a bug
        #: in the instrumentation; the failure-path tests pin this at 0.
        self.double_closes = 0

    def add(self, span: Span) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return
        self.spans.append(span)

    def close(self, span: Span, end: float, status: str,
              attrs: Optional[dict] = None) -> None:
        if span.closed:
            self.double_closes += 1
            return
        span.end = end
        span.status = status
        if attrs:
            span.attrs.update(attrs)

    def open_spans(self, category: Optional[str] = None) -> list[Span]:
        return [s for s in self.spans if not s.closed
                and (category is None or s.category == category)]

    def flush(self, now: float) -> int:
        """Close every still-open span as ``unfinished`` (pre-export)."""
        leftovers = self.open_spans()
        for span in leftovers:
            self.close(span, now, "unfinished")
        return len(leftovers)

    def stats(self) -> dict:
        return {
            "spans": len(self.spans),
            "open": len(self.open_spans()),
            "dropped": self.dropped,
            "double_closes": self.double_closes,
        }

    def to_json(self) -> dict:
        return spans_to_json(span.to_dict() for span in self.spans)

    def to_chrome(self) -> dict:
        return chrome_trace(span.to_dict() for span in self.spans)


class Tracer:
    """Deterministic causal tracer: context stack + keyed async spans.

    Synchronous work uses :meth:`begin`/:meth:`end` (or :meth:`span`);
    work that crosses a scheduled event or a message round-trip opens a
    *keyed* span (:meth:`open_span`) that whoever observes the outcome
    closes by key (:meth:`close_span`) — a response handler, a finality
    check, a crash.  Keyed opens are idempotent (duplicate deliveries
    re-find the live span) and keyed closes on an absent key are no-ops,
    so at-least-once delivery never double-closes.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.recorder = SpanRecorder()
        self._seq = 0
        self._stack: list[TraceContext] = []
        self._keyed: dict[tuple, Span] = {}
        self._correlations: dict[str, TraceContext] = {}
        #: Keyed opens that found the key already live (duplicate delivery).
        self.reopened = 0
        #: Strict keyed closes that found no live span (a true orphan).
        self.orphan_closes = 0

    # -- context management ----------------------------------------------------

    @property
    def current(self) -> Optional[TraceContext]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def activate(self, context: Optional[TraceContext]):
        """Make ``context`` the active parent for the enclosed work."""
        if context is None:
            yield
            return
        self._stack.append(context)
        try:
            yield
        finally:
            self._stack.pop()

    def bind_correlation(self, correlation_id: str,
                         context: TraceContext) -> None:
        """Join key: lets log-pipeline hops re-find a request's trace."""
        self._correlations.setdefault(correlation_id, context)

    def context_for(self, correlation_id: str) -> Optional[TraceContext]:
        return self._correlations.get(correlation_id)

    # -- span lifecycle --------------------------------------------------------

    def _next_span(self, name: str, component: str, category: str,
                   parent, trace_id: Optional[str],
                   attrs: Optional[dict]) -> Span:
        parent_ctx = self.current if parent is _INHERIT else parent
        self._seq += 1
        span_id = f"s{self._seq}"
        if trace_id is None:
            trace_id = parent_ctx.trace_id if parent_ctx else f"t-{span_id}"
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_ctx.span_id if parent_ctx else None,
            component=component,
            category=category,
            start=self.sim.now,
            seq=self._seq,
            attrs=dict(attrs) if attrs else {},
        )
        self.recorder.add(span)
        return span

    def begin(self, name: str, component: str, *, parent=_INHERIT,
              trace_id: Optional[str] = None, category: str = "request",
              attrs: Optional[dict] = None) -> Span:
        """Open a span (parent defaults to the active context)."""
        return self._next_span(name, component, category, parent, trace_id, attrs)

    def end(self, span: Span, status: str = "ok",
            attrs: Optional[dict] = None) -> None:
        self.recorder.close(span, self.sim.now, status, attrs)

    @contextmanager
    def span(self, name: str, component: str, **kwargs):
        """Begin + activate + end around a block (status ``ok``)."""
        opened = self.begin(name, component, **kwargs)
        with self.activate(opened.context):
            yield opened
        self.end(opened)

    def instant(self, name: str, component: str, *,
                context: Optional[TraceContext] = _INHERIT,
                trace_id: Optional[str] = None, category: str = "event",
                attrs: Optional[dict] = None) -> Span:
        """A zero-duration marker (alerts, violations, membership)."""
        span = self._next_span(name, component, category, context,
                               trace_id, attrs)
        self.recorder.close(span, self.sim.now, "event")
        return span

    # -- keyed async spans -----------------------------------------------------

    def open_span(self, key: tuple, name: str, component: str, *,
                  parent=_INHERIT, trace_id: Optional[str] = None,
                  category: str = "request",
                  attrs: Optional[dict] = None) -> Span:
        existing = self._keyed.get(key)
        if existing is not None:
            self.reopened += 1
            return existing
        span = self._next_span(name, component, category, parent,
                               trace_id, attrs)
        self._keyed[key] = span
        return span

    def keyed(self, key: tuple) -> Optional[Span]:
        return self._keyed.get(key)

    def close_span(self, key: tuple, status: str = "ok",
                   attrs: Optional[dict] = None, *,
                   strict: bool = True) -> bool:
        """Close the keyed span; ``strict`` counts a missing key as an orphan.

        Non-strict closes are for observers that cannot know whether the
        open side ran (block inclusion closes mempool spans for every tx
        in the block, including txs submitted outside any trace).
        """
        span = self._keyed.pop(key, None)
        if span is None:
            if strict:
                self.orphan_closes += 1
            return False
        self.end(span, status, attrs)
        return True

    def close_prefixed(self, prefix: tuple, status: str,
                       attrs: Optional[dict] = None) -> int:
        """Close every keyed span whose key starts with ``prefix`` (crashes)."""
        matches = [key for key in self._keyed
                   if key[:len(prefix)] == prefix]
        for key in matches:
            self.close_span(key, status, attrs)
        return len(matches)

    def open_keys(self) -> list[tuple]:
        return list(self._keyed)

    # -- lifecycle / reporting -------------------------------------------------

    def flush(self) -> int:
        """Close leftover keyed + open spans (end of run, pre-export)."""
        for key in list(self._keyed):
            self.close_span(key, "unfinished")
        return self.recorder.flush(self.sim.now)

    def stats(self) -> dict:
        out = self.recorder.stats()
        out.update({
            "keyed_open": len(self._keyed),
            "reopened": self.reopened,
            "orphan_closes": self.orphan_closes,
            "correlations_bound": len(self._correlations),
        })
        return out


# -- exporters ------------------------------------------------------------------


def spans_to_json(spans: Iterable[dict]) -> dict:
    """The archival span-list document (``repro-spans/v1``)."""
    return {"format": SPAN_FORMAT, "spans": list(spans)}


def chrome_trace(spans: Iterable[dict],
                 time_scale: float = 1e6) -> dict:
    """Chrome ``trace_event`` JSON from span dicts.

    Sim time is seconds; ``trace_event`` wants microseconds, so
    ``time_scale`` defaults to 1e6 — one simulated second renders as one
    wall-clock second in the viewer.  Components map to processes and
    traces to threads (both small stable integers, with ``M`` metadata
    events naming them), so Perfetto groups a request's hops on one row.
    """
    spans = list(spans)
    components: dict[str, int] = {}
    traces: dict[str, int] = {}
    for span in spans:
        components.setdefault(str(span.get("component", "?")), len(components) + 1)
        traces.setdefault(str(span.get("trace_id", "?")), len(traces) + 1)
    events: list[dict] = []
    for component, pid in components.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": component}})
    for span in spans:
        if span.get("end") is None:
            continue  # unexported: flush before converting
        pid = components[str(span.get("component", "?"))]
        tid = traces[str(span.get("trace_id", "?"))]
        start = float(span["start"])
        duration = float(span["end"]) - start
        args = dict(span.get("attrs", {}))
        args.update({
            "trace_id": span.get("trace_id"),
            "span_id": span.get("span_id"),
            "parent_id": span.get("parent_id"),
            "status": span.get("status"),
        })
        events.append({
            "ph": "X",
            "name": str(span.get("name", "?")),
            "cat": str(span.get("category", "request")),
            "ts": start * time_scale,
            "dur": duration * time_scale,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: dict) -> list[str]:
    """Shape-check a ``trace_event`` document; returns problem strings."""
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        for required in ("ph", "name", "pid"):
            if required not in event:
                problems.append(f"event {index}: missing {required!r}")
        if event.get("ph") == "X":
            for required in ("ts", "dur"):
                if required not in event:
                    problems.append(f"event {index}: missing {required!r}")
    return problems


__all__ = [
    "SPAN_FORMAT",
    "TraceContext",
    "Span",
    "SpanRecorder",
    "Tracer",
    "spans_to_json",
    "chrome_trace",
    "validate_chrome_trace",
]
