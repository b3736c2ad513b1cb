"""E15 — fault injection: link loss against PEP failover.

The earlier experiments measured the monitored federation on a fabric
that never failed.  This one degrades the links between every PEP and
every PDP shard with the :mod:`repro.faults` plane and sweeps the
per-link loss rate, with :class:`~repro.accesscontrol.pep.RetryBackoff`
failover.  Graceful degradation: every request resolves (no hangs),
latency stays inside the whole-request bound, and re-routing grows with
the loss rate instead of falling over.

The retired detection-under-chaos arm (E15b: the ten-attack catalogue,
calm and under the partition storm) keeps its last rows in
``docs/faults.md`` §7; the ``storm-attacked`` workload of ``python -m
bench`` runs that storm under every attack and fails on an undetected
attack, an unattributed alert, an unrecovered component or a forked
chain node, and ``tests/test_faults.py::TestHonestStorm`` holds the
storm's recovery bars.  The retired third arm (a partitioned-cache
shard crashed, restarted and re-warmed from its survivors) keeps its
last rows in ``docs/elasticity.md`` §2.

That the machinery is free until a plan says otherwise (an armed *empty*
plan leaves the run bit-identical to no fault plane at all) is pinned in
tier-1: ``tests/test_neutrality.py::test_observer_neutrality[empty_fault_plan]``.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import p95, write_json_report
from repro.accesscontrol.pep import RetryBackoff
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.faults import FaultPlan, link_degrade
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import partition_storm_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SWEEP_REQUESTS = 40 if SMOKE else 80
LOSS_RATES = (0.0, 0.1, 0.3) if SMOKE else (0.0, 0.1, 0.3, 0.5)

#: Whole-request budget of every PEP, which retries with decorrelated backoff.
REQUEST_TIMEOUT = 1.0


def run_loss_arm(loss: float):
    plane = ShardedPdpPlane(shards=2)
    stack = MonitoredFederation.build(
        partition_storm_scenario(),
        clouds=2,
        seed=61,
        with_drams=False,
        plane=plane,
        pep_kwargs={"request_timeout": REQUEST_TIMEOUT, "backoff": RetryBackoff(base=0.2, cap=0.5)},
    )
    if loss > 0:
        controller = stack.inject_faults(
            FaultPlan(
                name=f"loss-{loss}",
                events=tuple(
                    link_degrade(
                        [pep.address], [service.address], at=0.0, loss=loss, symmetric=True
                    )
                    for pep in stack.peps.values()
                    for service in plane.services
                ),
            )
        )
        assert len(controller.applied) == 0  # nothing fired yet
    stack.issue_requests(SWEEP_REQUESTS, start_at=0.1)
    stack.run(until=30.0)
    outcomes = stack.outcomes
    assert len(outcomes) == SWEEP_REQUESTS, f"requests hung at loss={loss}"
    assert all(o.latency <= REQUEST_TIMEOUT + 1e-6 for o in outcomes), (
        f"latency escaped the whole-request bound at loss={loss}"
    )
    return {
        "loss": loss,
        "resolved": len(outcomes),
        "granted": sum(1 for o in outcomes if o.granted),
        "timeouts": sum(pep.timeouts for pep in stack.peps.values()),
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
        "p95_latency_s": p95(o.latency for o in outcomes),
    }


def test_e15_faults(report):
    rows = [run_loss_arm(loss) for loss in LOSS_RATES]
    assert rows[0]["timeouts"] == 0 and rows[0]["failovers"] == 0
    assert rows[-1]["failovers"] > 0, "heavy loss produced no failover re-routing at all"

    report(
        "e15",
        format_table(
            [{**row, "p95_latency_s": round(row["p95_latency_s"], 3)} for row in rows],
            title="E15 — link-loss sweep (PEP failover with decorrelated backoff)",
        ),
    )
    write_json_report("e15", {"loss_sweep": rows, "smoke": SMOKE})
