"""E13 — the decision plane: static shard scaling and runtime membership.

Both loads run over *serialized* evaluators: each decision occupies its
shard for a fixed service time, so the single-evaluator ceiling is real
rather than simulated away, and shard count converts directly into
simulated decisions/sec (first arrival to last enforcement).

- **Static scaling** (E11's arms, folded in here): the ``federation-scale``
  scenario, whose arrival rate exceeds one evaluator's service rate,
  issued at once over static pools of 1, 2 and 4 shards.  Bars: ≥ 2×
  decisions/sec at 4 shards against one, and 2 shards beat one.
- **Elasticity**: the ``elastic-scale`` scenario — a civil-protection
  flash crowd arriving in waves, with hot decision-cache keys
  concentrated on the public alert feed — over pools whose membership
  changes at runtime (``add_shard`` / ``drain_shard`` with
  consistent-hash re-homing).  Bars: a pool that starts at 2 shards and
  adds 2 more between waves clears the workload ≥ 1.25× faster than a
  pool stuck at 2, and a pool that drains a shard mid-run still beats
  static-2.

Every arm loses no request and times none out.  Simulated time, so every
bar is machine-independent and applies to smoke runs too.

That sharding is topology, never semantics — every decision and the DRAMS
alert stream equal under every plane shape — is pinned in tier-1:
``tests/test_neutrality.py::test_topology_neutrality``.  The retired
monitored-churn arm (full DRAMS across a mid-run add and drain, zero
alerts, every decision checked) is ``TestProbeLifecycle`` in
``tests/test_elastic_plane.py`` now, and keeps its last row in
``docs/elasticity.md`` §4; the retired queue-aware routing arm keeps
its last rows in §3.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import p95, write_json_report
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import elastic_scale_scenario, federation_scale_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: A load: scenario, seed, wave start times, requests per wave.  The
#: overload is one burst at 2 500/s; the flash crowd is three bursts at
#: 3 000/s (each ≈ 50 ms), arriving faster than any arm drains them, so
#: membership changes hit *standing* backlogs rather than an idle pool.
#: The smoke size still has to saturate a 2-shard pool (≥ 1 s of queued
#: work per shard across the 1 s wave window) or the elasticity floor
#: becomes unmeasurable.
OVERLOAD = (federation_scale_scenario, 77, (0.5,), 150 if SMOKE else 400)
FLASH_CROWD = (elastic_scale_scenario, 91, (0.5, 1.0, 1.5), 100 if SMOKE else 150)
SCALE_AT = 0.8  # membership changes land between wave 1 and wave 2
SCALING_FLOOR = 2.0  # 4 static shards vs 1
ELASTIC_FLOOR = 1.25  # elastic 2→4 vs static-2

#: Uniform service model: every decision occupies its shard for 10 ms
#: (a 100 decisions/sec evaluator), far below either load's arrival
#: rate, so one shard saturates and shard count matters.
SERVICE_KWARGS = {
    "base_processing_delay": 0.01,
    "per_rule_delay": 0.0,
    "serialize_evaluations": True,
}

#: arm → (load, shards at build time, membership changes).
ARMS = {
    "single": (OVERLOAD, 1, {}),
    "sharded-2": (OVERLOAD, 2, {}),
    "sharded-4": (OVERLOAD, 4, {}),
    "static-2": (FLASH_CROWD, 2, {}),
    "static-4": (FLASH_CROWD, 4, {}),
    "elastic-2to4": (FLASH_CROWD, 2, {"add_shards": 2}),
    "elastic-drain": (FLASH_CROWD, 4, {"drain_address": "pdp-3@infrastructure"}),
}


def run_arm(load, shards, *, add_shards=0, drain_address=None):
    """Run ``load`` over a serialized ``shards``-shard pool; return shape metrics."""
    scenario, seed, wave_starts, wave_size = load
    plane = ShardedPdpPlane(shards=shards, service_kwargs=dict(SERVICE_KWARGS))
    stack = MonitoredFederation.build(scenario(), clouds=2, seed=seed, with_drams=False, plane=plane)
    drained_services = []

    def track_drains(event, service):
        if event == "draining":
            drained_services.append(service)

    plane.on_membership(track_drains)
    total = 0
    for start in wave_starts:
        stack.issue_requests(wave_size, start_at=start)
        total += wave_size
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
    return {
        "scenario": stack.scenario.name,
        "rate": total / makespan if makespan > 0 else float("inf"),
        "makespan": makespan,
        "served": served,
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
        "p95_latency": p95(o.latency for o in stack.outcomes),
    }


def test_e13_elastic_plane(report):
    rows = []
    json_rows = []
    results = {}
    for arm, (load, shards, changes) in ARMS.items():
        result = run_arm(load, shards, **changes)
        results[arm] = result
        rows.append(
            {
                "arm": arm,
                "scenario": result["scenario"],
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
                "scenario": result["scenario"],
                "sim_decisions_per_s": result["rate"],
                "makespan_s": result["makespan"],
                "p95_latency_s": result["p95_latency"],
                "served": result["served"],
                "failovers": result["failovers"],
            }
        )

    mode = ", smoke" if SMOKE else ""
    table = format_table(
        rows,
        title=(
            f"E13: decision plane ({OVERLOAD[3]} requests at once; {3 * FLASH_CROWD[3]} "
            f"in 3 waves; serialized evaluators{mode})"
        ),
    )
    report("e13_elastic_plane", table)

    rate = {arm: result["rate"] for arm, result in results.items()}
    scaling = rate["sharded-4"] / rate["single"]
    elasticity = rate["elastic-2to4"] / rate["static-2"]
    write_json_report(
        "e13",
        {
            "rows": json_rows,
            "scaling_at_4_shards": scaling,
            "scaling_floor": SCALING_FLOOR,
            "elastic_speedup_vs_static2": elasticity,
            "elastic_floor": ELASTIC_FLOOR,
        },
    )

    # Acceptance: shards lift the single-evaluator ceiling …
    assert scaling >= SCALING_FLOOR, f"4 shards scaled only {scaling:.2f}x over one: {rate}"
    assert rate["sharded-2"] > rate["single"], "2 shards did not beat one evaluator"
    # … membership changes convert into throughput …
    assert elasticity >= ELASTIC_FLOOR, f"elastic 2→4 scaled only {elasticity:.2f}x over static-2"
    # … and draining sheds a shard without losing requests or ground.
    assert "pdp-3@infrastructure" in results["elastic-drain"]["served"]
    assert rate["elastic-drain"] > rate["static-2"], (
        "a drained 4-shard pool should still beat a 2-shard pool"
    )
