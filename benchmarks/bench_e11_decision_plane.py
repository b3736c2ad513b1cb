"""E11 — decision-plane scaling: a sharded PDP pool behind the PEPs.

PR 1 and PR 2 removed the per-decision and monitoring-plane hot paths, so
the single logical PDP evaluator is the remaining throughput ceiling.
This experiment deploys the ``federation-scale`` scenario — whose arrival
rate exceeds one evaluator's service rate — over planes of 1, 2 and 4
shards with a *serialized* evaluator model (each decision occupies its
shard for a fixed service time, so the single-evaluator ceiling is real
rather than simulated away) and measures simulated decisions/sec from
first arrival to last enforcement.

Shape assertions:

- throughput scales with shard count: ≥2× decisions/sec at 4 shards vs
  the single-evaluator plane (simulated time, so the bar is
  machine-independent and applies to smoke runs too);
- no request times out in any arm.

That sharding is topology, never semantics — every decision and the DRAMS
alert stream equal under ``SinglePdpPlane`` and ``ShardedPdpPlane`` — is
pinned in tier-1: ``tests/test_neutrality.py::test_topology_neutrality``.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import write_json_report
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import federation_scale_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REQUESTS = 150 if SMOKE else 400
SCALING_FLOOR = 2.0  # at 4 shards vs 1 — simulated time, machine-independent

#: Uniform service model for the throughput arms: every decision occupies
#: its shard for 10 ms (a 100 decisions/sec evaluator), far below the
#: scenario's 2 500/s arrival rate, so one shard saturates and added
#: shards convert directly into throughput.
SERVICE_KWARGS = {
    "base_processing_delay": 0.01,
    "per_rule_delay": 0.0,
    "serialize_evaluations": True,
}

THROUGHPUT_ARMS = (
    ("single", 1),
    ("sharded-2", 2),
    ("sharded-4", 4),
)


def make_plane(shards, service_kwargs=None):
    if shards == 1:
        return SinglePdpPlane(service_kwargs=service_kwargs)
    return ShardedPdpPlane(shards=shards, service_kwargs=service_kwargs)


def run_throughput_arm(shards):
    stack = MonitoredFederation.build(
        federation_scale_scenario(),
        clouds=2,
        seed=77,
        with_drams=False,
        plane=make_plane(shards, service_kwargs=dict(SERVICE_KWARGS)),
    )
    stack.issue_requests(REQUESTS)
    stack.run(until=600.0)
    assert len(stack.outcomes) == REQUESTS, f"{shards}-shard arm lost requests"
    timeouts = sum(pep.timeouts for pep in stack.peps.values())
    assert timeouts == 0, f"{shards}-shard arm timed out {timeouts} requests"
    first = min(o.requested_at for o in stack.outcomes)
    last = max(o.enforced_at for o in stack.outcomes)
    makespan = last - first
    served = [service.requests_served for service in stack.pdp_services]
    return {
        "rate": REQUESTS / makespan if makespan > 0 else float("inf"),
        "makespan": makespan,
        "served": served,
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
    }


def test_e11_decision_plane(report):
    rows = []
    json_rows = []
    rates = {}
    for arm, shards in THROUGHPUT_ARMS:
        result = run_throughput_arm(shards)
        rates[arm] = result["rate"]
        served = result["served"]
        rows.append(
            {
                "arm": arm,
                "shards": shards,
                "sim_decisions_per_s": round(result["rate"], 1),
                "speedup": round(result["rate"] / rates["single"], 2),
                "makespan_s": round(result["makespan"], 2),
                "shard_load": "/".join(str(count) for count in served),
                "failovers": result["failovers"],
            }
        )
        json_rows.append(
            {
                "arm": arm,
                "shards": shards,
                "sim_decisions_per_s": result["rate"],
                "makespan_s": result["makespan"],
                "served": served,
                "failovers": result["failovers"],
            }
        )

    mode = ", smoke" if SMOKE else ""
    table = format_table(
        rows,
        title=(
            f"E11: decision-plane scaling ({REQUESTS} requests, "
            f"federation-scale, serialized evaluators{mode})"
        ),
    )
    report("e11_decision_plane", table)
    scaling = rates["sharded-4"] / rates["single"]
    write_json_report(
        "e11",
        {
            "rows": json_rows,
            "scaling_at_4_shards": scaling,
            "scaling_floor": SCALING_FLOOR,
        },
    )

    # Acceptance: the plane lifts the single-evaluator ceiling.
    assert scaling >= SCALING_FLOOR, (
        f"4-shard plane scaled only {scaling:.2f}x over one evaluator: {rates}"
    )
    assert rates["sharded-2"] > rates["single"], "2 shards did not beat one evaluator"
