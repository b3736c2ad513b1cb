"""Telemetry plane: tracing, run summary, critical paths, failure paths.

The failure-path tests pin the PR's hygiene contract: spans close exactly
once across PEP failover/retry, shard crashes (epoch fence) and
``dropped_dead`` messages — ``double_closes`` and ``orphan_closes`` stay
at zero, and nothing is left open after a run completes.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.accesscontrol.plane import ShardedPdpPlane
from repro.common.errors import ValidationError
from repro.harness import MonitoredFederation
from repro.policydist import ReplicatedPrpPlane
from repro.simnet.network import Host
from repro.telemetry import (
    CriticalPathAnalyser,
    Span,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.workload.scenarios import healthcare_scenario
from tests.conftest import fast_drams_config


# -- tracer core --------------------------------------------------------------------


def test_span_parenting_follows_activation(sim):
    tracer = Tracer(sim)
    root = tracer.begin("root", "comp", parent=None, trace_id="t1")
    with tracer.activate(root.context):
        child = tracer.begin("child", "comp")
    orphan = tracer.begin("orphan", "comp", parent=None)
    assert child.trace_id == "t1" and child.parent_id == root.span_id
    assert orphan.parent_id is None and orphan.trace_id.startswith("t-")
    tracer.end(child)
    tracer.end(root, "Permit")
    assert root.status == "Permit" and root.closed
    # Double close is counted, never applied.
    tracer.end(root, "again")
    assert root.status == "Permit"
    assert tracer.recorder.double_closes == 1


def test_keyed_spans_idempotent_and_strict_orphans(sim):
    tracer = Tracer(sim)
    first = tracer.open_span(("k", 1), "work", "comp", parent=None)
    again = tracer.open_span(("k", 1), "work", "comp", parent=None)
    assert first is again and tracer.reopened == 1
    assert tracer.close_span(("k", 1), "ok")
    assert not tracer.close_span(("k", 1), "ok")  # strict: counted
    assert tracer.orphan_closes == 1
    assert not tracer.close_span(("absent",), "ok", strict=False)
    assert tracer.orphan_closes == 1  # non-strict: silent


def test_close_prefixed_and_flush(sim):
    tracer = Tracer(sim)
    tracer.open_span(("pdp", "a", 1), "eval", "a", parent=None)
    tracer.open_span(("pdp", "a", 2), "eval", "a", parent=None)
    tracer.open_span(("pdp", "b", 1), "eval", "b", parent=None)
    assert tracer.close_prefixed(("pdp", "a"), "crashed") == 2
    assert [s.status for s in tracer.recorder.spans].count("crashed") == 2
    leftover = tracer.begin("dangling", "c", parent=None)
    assert tracer.flush() >= 1
    assert leftover.status == "unfinished"
    stats = tracer.stats()
    assert stats["open"] == 0 and stats["keyed_open"] == 0


def test_correlation_binding_first_writer_wins(sim):
    tracer = Tracer(sim)
    a = tracer.begin("a", "c", parent=None, trace_id="t1")
    b = tracer.begin("b", "c", parent=None, trace_id="t2")
    tracer.bind_correlation("corr", a.context)
    tracer.bind_correlation("corr", b.context)
    assert tracer.context_for("corr") == a.context
    assert tracer.context_for("other") is None


# -- critical-path analyser ----------------------------------------------------------


def _span(name, span_id, parent, start, end, seq, trace="t"):
    return Span(name=name, trace_id=trace, span_id=span_id, parent_id=parent,
                component="c", category="request", start=start, seq=seq,
                end=end, status="ok")


def test_attribution_deepest_span_wins_and_gaps_are_wait():
    spans = [
        _span("pep.request", "s1", None, 0.0, 10.0, 1),
        _span("pdp.evaluate", "s2", "s1", 1.0, 4.0, 2),
        _span("chain.commit", "s3", "s1", 4.0, 9.0, 3),
        _span("analyser.audit", "s4", None, 12.0, 15.0, 4),
    ]
    paths = CriticalPathAnalyser(spans)
    shares = paths.attribution("t")
    assert shares["pdp.evaluate"] == pytest.approx(3.0)
    assert shares["chain.commit"] == pytest.approx(5.0)
    assert shares["pep.request"] == pytest.approx(2.0)  # 0-1 and 9-10
    assert shares["analyser.audit"] == pytest.approx(3.0)
    assert shares["wait"] == pytest.approx(2.0)  # 10-12: nothing active
    assert sum(shares.values()) == pytest.approx(15.0)
    assert paths.decision_traces() == ["t"]
    rows = paths.attribution_table(fractions=(0.5,))
    assert rows[0]["percentile"] == "p50" and rows[0]["total_s"] == 15.0


def test_open_spans_excluded_everywhere():
    closed = _span("a", "s1", None, 0.0, 1.0, 1)
    open_span = _span("b", "s2", None, 0.5, None, 2)
    open_span.status = "open"
    paths = CriticalPathAnalyser([closed, open_span])
    assert paths.attribution("t") == {"a": 1.0}
    trace = chrome_trace([closed.to_dict(), open_span.to_dict()])
    assert len([e for e in trace["traceEvents"] if e["ph"] == "X"]) == 1


# -- exporters ----------------------------------------------------------------------


def test_chrome_trace_shape_and_validation(sim):
    tracer = Tracer(sim)
    root = tracer.begin("pep.request", "pep@a", parent=None, trace_id="req-1")
    with tracer.activate(root.context):
        child = tracer.begin("pdp.evaluate", "pdp@infra")
    tracer.end(child)
    tracer.end(root)
    document = tracer.recorder.to_chrome()
    assert validate_chrome_trace(document) == []
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"pep.request", "pdp.evaluate"}
    by_name = {e["name"]: e for e in complete}
    # Same trace → same tid; different components → different pids.
    assert by_name["pep.request"]["tid"] == by_name["pdp.evaluate"]["tid"]
    assert by_name["pep.request"]["pid"] != by_name["pdp.evaluate"]["pid"]
    assert by_name["pdp.evaluate"]["args"]["parent_id"] == root.span_id
    assert validate_chrome_trace({}) == ["missing traceEvents list"]
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})


def test_trace2chrome_selfcheck_passes():
    path = (pathlib.Path(__file__).parent.parent / "tools"
            / "trace2chrome.py")
    spec = importlib.util.spec_from_file_location("trace2chrome", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.selfcheck() == 0
    doc = module.convert(
        {"format": "repro-spans/v1",
         "spans": [_span("x", "s1", None, 0.0, 1.0, 1).to_dict()]})
    assert validate_chrome_trace(doc) == []
    with pytest.raises(SystemExit):
        module.convert({"format": "something-else", "spans": []})


# -- message propagation -------------------------------------------------------------


class _Sink(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.seen_contexts = []

    def receive(self, message):
        self.seen_contexts.append(self.network.telemetry.current)


def test_context_rides_messages_and_activates_on_delivery(sim, network):
    tracer = Tracer(sim)
    network.telemetry = tracer
    _Sink(network, "a")
    sink = _Sink(network, "b")
    span = tracer.begin("root", "a", parent=None, trace_id="t1")
    with tracer.activate(span.context):
        message = network.send("a", "b", "ping", {})
    assert message.trace == span.context
    untraced = network.send("a", "b", "ping", {})
    assert untraced.trace is None
    sim.run(until=1.0)
    assert sink.seen_contexts == [span.context, None]


def test_dropped_dead_leaves_instant_on_the_trace(sim, network):
    tracer = Tracer(sim)
    network.telemetry = tracer
    _Sink(network, "a")
    _Sink(network, "b")
    span = tracer.begin("root", "a", parent=None, trace_id="t1")
    with tracer.activate(span.context):
        network.send("a", "b", "ping", {})
    network.detach("b")  # dies with the message in flight
    sim.run(until=1.0)
    assert network.stats.dropped_dead == 1
    markers = [s for s in tracer.recorder.spans if s.name == "net.dropped_dead"]
    assert len(markers) == 1
    assert markers[0].trace_id == "t1"
    assert markers[0].attrs["kind"] == "ping"


# -- full-stack integration ----------------------------------------------------------


def _build(telemetry, **kwargs):
    stack = MonitoredFederation.build(
        healthcare_scenario(), seed=13,
        drams_config=fast_drams_config(), telemetry=telemetry, **kwargs)
    stack.start()
    return stack


def test_stack_telemetry_snapshot_and_run_summary():
    stack = _build(telemetry=True)
    stack.issue_requests(6)
    stack.run(until=30.0)
    assert len(stack.outcomes) == 6

    tracing = stack.telemetry.tracer.stats()
    assert tracing["open"] == 0 and tracing["keyed_open"] == 0
    assert tracing["double_closes"] == 0 and tracing["orphan_closes"] == 0

    summary = stack.run_summary()
    assert summary["enforced"] == 6 and summary["timeouts"] == 0
    assert summary["network"]["by_kind"]["ac_request"] == 6
    assert "dropped_dead" in summary["network"]
    assert summary["plane"]["shards"] == 1
    assert summary["policy_plane"]["kind"] == "SingleStorePlane"
    assert summary["policy_plane"]["versions"] == 1
    assert sum(pep["enforced"] for pep in summary["peps"].values()) == 6
    assert summary["latency"]["count"] == 6
    assert {"mean", "max", "p50", "p95"} <= summary["latency"].keys()
    assert "drams" in summary
    assert summary["tracing"]["spans"] == tracing["spans"]

    # Windowed slice: the outcome store's simulated-time windows.
    windows = stack.metrics.snapshot()["windows"]
    assert sum(window["count"] for window in windows) == 6
    first_half = [window for window in windows if window["start"] < 15.0]
    assert 1 <= sum(window["count"] for window in first_half) <= 6

    chrome = stack.telemetry.chrome_trace()
    assert validate_chrome_trace(chrome) == []
    assert sum(event["ph"] == "X" for event in chrome["traceEvents"]) == tracing["spans"]

    paths = stack.telemetry.critical_paths()
    assert len(paths.decision_traces()) == 6
    for trace_id in paths.decision_traces():
        shares = paths.attribution(trace_id)
        start, end = paths.extent(trace_id)
        assert sum(shares.values()) == pytest.approx(end - start)


def test_span_archive_and_mean_attribution():
    stack = _build(telemetry=True)
    stack.issue_requests(6)
    stack.run(until=30.0)
    archive = stack.telemetry.spans_json()
    assert archive["format"] == "repro-spans/v1"
    assert archive["spans"] == [span.to_dict() for span in stack.telemetry.tracer.recorder.spans]
    # Each decision's hop fractions sum to one, and so does their mean.
    mean = stack.telemetry.critical_paths().mean_attribution()
    assert {"pdp.evaluate", "pep.dispatch"} <= mean.keys()
    assert sum(mean.values()) == pytest.approx(1.0)


def test_run_summary_describes_replicated_policy_plane():
    stack = _build(
        telemetry=False,
        plane=ShardedPdpPlane(shards=2),
        policy_plane=ReplicatedPrpPlane(),
    )
    stack.issue_requests(3)
    stack.run(until=20.0)
    summary = stack.run_summary()
    assert summary["policy_plane"]["kind"] == "ReplicatedPrpPlane"
    assert summary["policy_plane"]["consumers"] == ["analyser", "pdp-0", "pdp-1"]
    assert summary["policy_plane"]["propagation_delay"] == 0.05


def test_run_summary_without_telemetry():
    stack = _build(telemetry=False)
    stack.issue_requests(3)
    stack.run(until=20.0)
    summary = stack.run_summary()
    assert "tracing" not in summary
    assert summary["network"]["sent"] > 0


def _unmonitored_stream(record_outcomes):
    stack = MonitoredFederation.build(healthcare_scenario(), seed=13, with_drams=False)
    handle = stack.issue_stream(25, record_outcomes=record_outcomes)
    stack.run(until=60.0)
    return stack, handle


def test_run_summary_counts_unrecorded_stream():
    stack, handle = _unmonitored_stream(record_outcomes=False)
    recorded, _ = _unmonitored_stream(record_outcomes=True)
    assert stack.outcomes == [] and handle.metrics.count == 25
    summary = stack.run_summary()
    truth = recorded.run_summary()
    assert summary["enforced"] == truth["enforced"] == len(recorded.outcomes) == 25
    granted = sum(o.granted for o in recorded.outcomes)
    assert 0 < granted < 25
    assert summary["grant_rate"] == truth["grant_rate"] == round(granted / 25, 4)
    latencies = recorded.access_latencies()
    assert summary["latency"]["count"] == 25
    assert summary["latency"]["mean"] == pytest.approx(sum(latencies) / 25)
    assert summary["latency"]["max"] == max(latencies)
    # Order statistics need the outcomes themselves.
    assert "p50" not in summary["latency"] and "p95" not in summary["latency"]
    assert {"p50", "p95"} <= truth["latency"].keys()


def test_fingerprint_refuses_unrecorded_outcomes():
    stack, _ = _unmonitored_stream(record_outcomes=False)
    with pytest.raises(ValidationError):
        stack.fingerprint()
    recorded, _ = _unmonitored_stream(record_outcomes=True)
    assert len(recorded.fingerprint()["decisions"]) == 25


# -- failure paths (satellite: spans close across failover / crash) ------------------


def test_failover_closes_attempt_spans_exactly_once():
    stack = MonitoredFederation.build(
        healthcare_scenario(), seed=31, with_drams=False,
        plane=ShardedPdpPlane(shards=2),
        pep_kwargs={"request_timeout": 4.0}, telemetry=True)
    # Primary shard dead before traffic: requests routed there first time
    # out and fail over to the survivor.
    stack.plane.crash_shard(stack.plane.services[0].address)
    stack.issue_requests(10)
    stack.run(until=30.0)
    assert len(stack.outcomes) == 10
    failovers = sum(p.failovers for p in stack.peps.values())
    assert failovers > 0

    tracer = stack.telemetry.tracer
    dispatch = [s for s in tracer.recorder.spans if s.name == "pep.dispatch"]
    statuses = sorted({s.status for s in dispatch})
    assert "timeout" in statuses and "ok" in statuses
    assert all(s.closed for s in dispatch)
    assert tracer.recorder.open_spans() == []
    stats = tracer.stats()
    assert stats["double_closes"] == 0 and stats["orphan_closes"] == 0
    assert stats["keyed_open"] == 0


def test_shard_crash_epoch_fence_closes_evaluation_spans():
    stack = MonitoredFederation.build(
        healthcare_scenario(), seed=32, with_drams=False,
        plane=ShardedPdpPlane(
            shards=2, service_kwargs={"base_processing_delay": 1.0}),
        pep_kwargs={"request_timeout": 6.0}, telemetry=True)
    stack.issue_requests(8, start_at=0.5)
    tracer = stack.telemetry.tracer

    # Crash a shard while its accepted evaluations are still queued: the
    # epoch fence discards them, and close_prefixed marks their spans.
    # The victim is picked at crash time from the open evaluation spans,
    # so the test does not depend on how the ring routes the first burst.
    def crash_busy_shard():
        busy = [k for k in tracer.open_keys() if k[0] == "pdp.evaluate"]
        assert busy, "no evaluation in flight at crash time"
        stack.plane.crash_shard(busy[0][1])

    stack.sim.schedule_at(1.2, crash_busy_shard)
    stack.run(until=40.0)
    assert len(stack.outcomes) == 8

    crashed = [s for s in tracer.recorder.spans if s.status == "crashed"]
    assert crashed and all(s.name == "pdp.evaluate" for s in crashed)
    assert tracer.recorder.open_spans() == []
    stats = tracer.stats()
    assert stats["double_closes"] == 0 and stats["orphan_closes"] == 0
    # The lost evaluations were re-dispatched and answered elsewhere.
    assert sum(p.timeouts for p in stack.peps.values()) == 0
