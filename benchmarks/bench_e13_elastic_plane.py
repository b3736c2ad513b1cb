"""E13 — elastic decision plane: runtime membership changes.

A sharded PDP pool whose shard count is fixed at build time cannot follow
the ROADMAP's "heavy traffic from millions of users" north star.  This
experiment measures what makes the pool operable: shard membership
changes at runtime (``add_shard``/``drain_shard`` with consistent-hash
re-homing).

The workload is the ``elastic-scale`` scenario — a civil-protection
flash crowd arriving in waves, with hot decision-cache keys concentrated
on the public alert feed — over serialized evaluators, so shard
occupancy is real and membership changes convert directly into makespan.

Shape assertions:

- **elasticity pays**: a pool that starts at 2 shards and adds 2 more
  between waves clears the same workload ≥1.25× faster than a pool stuck
  at 2 (simulated time, machine-independent);
- **drain is graceful**: draining a shard mid-run loses zero requests,
  causes zero timeouts, and the drained shard finishes its in-flight
  evaluations before leaving the network;
- **monitoring never gaps**: a full DRAMS run with a mid-run add *and*
  drain raises zero alerts, and the Analyser independently re-derives
  every decision (nothing missed, nothing unattributed).

The retired queue-aware routing arm (``queue-4`` against ``ring-4``)
keeps its last measured rows in ``docs/elasticity.md`` §3.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import bench_drams_config, write_json_report
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import elastic_scale_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: The smoke size still has to *saturate* a 2-shard pool (≥ 1 s of queued
#: work per shard across the 1 s wave window) or the elasticity floor
#: becomes unmeasurable; shrink the monitored churn arm instead.
WAVE_SIZE = 100 if SMOKE else 150
#: Flash crowd in bursts arriving faster than any arm drains them, so
#: membership changes and routing hit *standing* backlogs rather than an
#: idle pool (each wave itself bursts in at 3 000/s ≈ 50 ms).
WAVE_STARTS = (0.5, 1.0, 1.5)
SCALE_AT = 0.8  # membership changes land between wave 1 and wave 2
CHURN_REQUESTS = 24 if SMOKE else 48
ELASTIC_FLOOR = 1.25  # elastic 2→4 vs static-2, simulated time

#: Uniform service model: every decision occupies its shard for 10 ms
#: (a 100 decisions/sec evaluator), far below the scenario's 3 000/s
#: burst arrival rate, so waves queue and membership changes matter.
SERVICE_KWARGS = {
    "base_processing_delay": 0.01,
    "per_rule_delay": 0.0,
    "serialize_evaluations": True,
}


def run_arm(plane, *, add_shards=0, drain_address=None):
    """Run the waved flash crowd over ``plane``; return shape metrics."""
    stack = MonitoredFederation.build(
        elastic_scale_scenario(),
        clouds=2,
        seed=91,
        with_drams=False,
        plane=plane,
    )
    drained_services = []

    def track_drains(event, service):
        if event == "draining":
            drained_services.append(service)

    plane.on_membership(track_drains)
    total = 0
    for start in WAVE_STARTS:
        stack.issue_requests(WAVE_SIZE, start_at=start)
        total += WAVE_SIZE
    for _ in range(add_shards):
        stack.add_pdp_shard(at=SCALE_AT)
    if drain_address is not None:
        stack.drain_pdp_shard(drain_address, at=SCALE_AT)
    stack.run(until=600.0)
    assert len(stack.outcomes) == total, "arm lost requests"
    timeouts = sum(pep.timeouts for pep in stack.peps.values())
    assert timeouts == 0, f"arm timed out {timeouts} requests"
    first = min(o.requested_at for o in stack.outcomes)
    last = max(o.enforced_at for o in stack.outcomes)
    makespan = last - first
    served = {service.address: service.requests_served for service in stack.pdp_services}
    for service in drained_services:
        served[service.address] = service.requests_served
    latencies = sorted(o.latency for o in stack.outcomes)
    return {
        "rate": total / makespan if makespan > 0 else float("inf"),
        "makespan": makespan,
        "served": served,
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
        "p95_latency": latencies[int(0.95 * (len(latencies) - 1))],
        "stack": stack,
    }


def run_monitored_churn_arm():
    """Full DRAMS run with a mid-run add + drain; nothing may gap."""
    plane = ShardedPdpPlane(shards=2, drain_grace=0.5)
    stack = MonitoredFederation.build(
        elastic_scale_scenario(),
        clouds=2,
        seed=92,
        with_drams=True,
        drams_config=bench_drams_config(),
        plane=plane,
    )
    stack.start()
    stack.issue_requests(CHURN_REQUESTS, start_at=0.5)
    stack.issue_requests(CHURN_REQUESTS, start_at=3.0)
    stack.add_pdp_shard(at=2.0)
    stack.drain_pdp_shard("pdp-0@infrastructure", at=2.5)
    stack.run(until=60.0)
    total = 2 * CHURN_REQUESTS
    assert len(stack.outcomes) == total, "monitored churn arm lost requests"
    assert sum(pep.timeouts for pep in stack.peps.values()) == 0
    analyser = stack.drams.analyser
    alerts = stack.drams.alerts.count()
    # Zero missed: every decision independently re-derived; zero
    # unattributed: no alert of any type was raised by the churn.
    assert alerts == 0, f"membership churn raised {alerts} alerts"
    assert analyser.checked == total, (
        f"analyser checked {analyser.checked}/{total} decisions across churn"
    )
    assert analyser.pending_correlations == 0
    drained = plane.draining()
    assert not drained, f"drained shard never quiesced: {drained}"
    return {
        "requests": total,
        "checked": analyser.checked,
        "alerts": alerts,
        "rebalances": plane.rebalances,
    }


def test_e13_elastic_plane(report):
    arms = {
        "static-2": lambda: (
            ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
            {},
        ),
        "static-4": lambda: (
            ShardedPdpPlane(shards=4, service_kwargs=dict(SERVICE_KWARGS)),
            {},
        ),
        "elastic-2to4": lambda: (
            ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
            {"add_shards": 2},
        ),
        "elastic-drain": lambda: (
            ShardedPdpPlane(shards=4, service_kwargs=dict(SERVICE_KWARGS)),
            {"drain_address": "pdp-3@infrastructure"},
        ),
    }
    rows = []
    json_rows = []
    results = {}
    for arm, factory in arms.items():
        plane, kwargs = factory()
        result = run_arm(plane, **kwargs)
        results[arm] = result
        rows.append(
            {
                "arm": arm,
                "sim_decisions_per_s": round(result["rate"], 1),
                "makespan_s": round(result["makespan"], 2),
                "p95_latency_s": round(result["p95_latency"], 3),
                "shard_load": "/".join(str(n) for _, n in sorted(result["served"].items())),
                "failovers": result["failovers"],
            }
        )
        json_rows.append(
            {
                "arm": arm,
                "sim_decisions_per_s": result["rate"],
                "makespan_s": result["makespan"],
                "p95_latency_s": result["p95_latency"],
                "served": result["served"],
                "failovers": result["failovers"],
            }
        )

    churn = run_monitored_churn_arm()

    mode = ", smoke" if SMOKE else ""
    table = format_table(
        rows,
        title=(
            f"E13: elastic decision plane ({3 * WAVE_SIZE} requests in "
            f"{len(WAVE_STARTS)} waves, elastic-scale, serialized "
            f"evaluators{mode})"
        ),
    )
    report("e13_elastic_plane", table)

    elasticity = results["elastic-2to4"]["rate"] / results["static-2"]["rate"]
    write_json_report(
        "e13",
        {
            "rows": json_rows,
            "elastic_speedup_vs_static2": elasticity,
            "elastic_floor": ELASTIC_FLOOR,
            "monitored_churn": churn,
        },
    )

    # Acceptance: membership changes convert into throughput …
    assert elasticity >= ELASTIC_FLOOR, f"elastic 2→4 scaled only {elasticity:.2f}x over static-2"
    # … and draining sheds a shard without losing requests or ground.
    assert "pdp-3@infrastructure" in results["elastic-drain"]["served"]
    assert results["elastic-drain"]["rate"] > results["static-2"]["rate"], (
        "a drained 4-shard pool should still beat a 2-shard pool"
    )
