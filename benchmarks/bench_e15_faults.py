"""E15 — fault injection: scripted chaos, recovery SLOs, detection under fire.

The earlier experiments measured the monitored federation on a fabric
that never failed.  This one turns the fabric hostile with the
:mod:`repro.faults` plane and asks the paper's resilience question the
hard way: does decentralised runtime monitoring stay *sound* (every
attack still detected) and *precise* (zero alerts attributed to the
chaos itself) while shards crash, links lose traffic and chain nodes
drop off the network mid-run?

Two arms:

1. **Loss sweep** — increasing per-link loss between PEPs and shards,
   with :class:`~repro.accesscontrol.pep.RetryBackoff` failover.
   Graceful degradation: every request resolves (no hangs), latency
   stays inside the whole-request bound, re-routing grows with the loss
   rate instead of falling over.
2. **Detection under chaos** — the full ten-attack catalogue, each run
   twice: once calm, once under a mid-run partition + PDP-shard crash +
   chain-node crash plan.  Bars: 10/10 detected in both runs, zero
   unattributed alerts in both, every crashed component recovers inside
   the plan's heal window, and the rejoined chain node converges on the
   reference head without forking.  The per-attack latency delta is the
   *detection latency inflation* the chaos costs.  The storm crashes and
   restarts a PDP shard under every attack; the shard reads the plane's
   one decision cache, which the crash never touches.

The retired third arm (a partitioned-cache shard crashed, restarted and
re-warmed from its survivors) keeps its last rows in
``docs/elasticity.md`` §2.

That the machinery is free until a plan says otherwise (an armed *empty*
plan leaves the run bit-identical to no fault plane at all) is pinned in
tier-1: ``tests/test_neutrality.py::test_observer_neutrality[empty_fault_plan]``.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import bench_drams_config, write_json_report
from repro.accesscontrol.pep import RetryBackoff
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.faults import FaultPlan, crash, link_degrade, partition
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.policydist import ReplicatedPrpPlane
from repro.threats.adversary import Adversary
from repro.threats.attacks import (
    CircumventionAttack,
    DecisionTamperAttack,
    EvaluationTamperAttack,
    LogTamperAttack,
    PolicySwapAttack,
    ProbeSuppressionAttack,
    ReplayAttack,
    RequestTamperAttack,
    StalePolicyReplayAttack,
    TamperedPrpReplicaAttack,
)
from repro.workload.scenarios import partition_storm_scenario
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SWEEP_REQUESTS = 40 if SMOKE else 80
LOSS_RATES = (0.0, 0.1, 0.3) if SMOKE else (0.0, 0.1, 0.3, 0.5)
#: Monitored-arm traffic arrives in waves pinned to the fault timeline,
#: so every fault window sees live decisions (the storm scenario's
#: arrival process would finish before the first fault otherwise).
WAVE_STARTS = (0.1, 0.9, 1.4, 2.4, 3.2)
WAVE_SIZE = 8 if SMOKE else 12
CHAOS_HORIZON = 45.0 if SMOKE else 60.0
ATTACK_AT = 1.2  # mid-partition: detection must work through the storm
#: Every component the plan crashes is restarted by t=3.0; recovery must
#: complete within this much simulated time after its restart.
TTR_BOUND = 5.0

#: The scripted storm of arm 2.  Windows are disjoint per victim so every
#: PEP keeps at least one reachable shard at all times — a PEP with *no*
#: escape route times out, and a timed-out decision has no complete
#: monitor record to attribute.
def storm_plan(shard_a: str, shard_b: str) -> FaultPlan:
    return FaultPlan(
        name="partition-storm",
        events=(
            partition(["pep@tenant-2"], [shard_a], at=0.6, heal_at=1.8),
            crash("bcnode@tenant-2", at=1.0, restart_at=2.0),
            crash(shard_b, at=2.2, restart_at=3.0),
        ),
    )


def storm_backoff():
    return {
        "request_timeout": 1.0,
        "backoff": RetryBackoff(base=0.2, cap=0.5),
    }


def rogue_policy_document():
    return policy_to_dict(
        Policy(
            policy_id="rogue-permit-all",
            rule_combining="permit-overrides",
            rules=[Rule("allow-everything", Effect.PERMIT)],
        )
    )


def attack_suite():
    """The full ten-class catalogue (E6 + E12), storm-scenario-tuned."""
    return [
        ("request-tamper", lambda: RequestTamperAttack(
            "tenant-1", escalated_value="commander"), False),
        ("decision-tamper", lambda: DecisionTamperAttack("tenant-2"), False),
        ("pdp-circumvention", lambda: CircumventionAttack("tenant-1"), False),
        ("evaluation-tamper", lambda: EvaluationTamperAttack(), False),
        ("policy-swap", lambda: PolicySwapAttack(rogue_policy_document()), False),
        ("probe-suppression", lambda: ProbeSuppressionAttack("pep:tenant-1"), False),
        ("log-tamper", lambda: LogTamperAttack("tenant-1"), False),
        ("replay", lambda: ReplayAttack("tenant-1"), False),
        ("stale-policy-replay", lambda: StalePolicyReplayAttack(), True),
        ("tampered-prp-replica", lambda: TamperedPrpReplicaAttack(
            rogue_policy_document()), False),
    ]


def variant_document(generation: int) -> dict:
    """A fingerprint-distinct, decision-identical storm policy revision.

    The stale-policy-replay attack only becomes visible once the
    federation has published past the staleness bound, so its runs need
    churn — but churn that *changes decisions* would differ between the
    calm and chaotic arms for timing reasons alone.  Re-stamping the
    description rotates the fingerprint and nothing else.
    """
    document = dict(partition_storm_scenario().policy_document)
    document["description"] = (
        f"{document.get('description', '')} [rev {generation}]"
    )
    return document


# -- arm 1: loss sweep -------------------------------------------------------------


def run_loss_arm(loss: float):
    plane = ShardedPdpPlane(shards=2)
    stack = MonitoredFederation.build(
        partition_storm_scenario(),
        clouds=2,
        seed=61,
        with_drams=False,
        plane=plane,
        pep_kwargs=storm_backoff(),
    )
    if loss > 0:
        controller = stack.inject_faults(FaultPlan(
            name=f"loss-{loss}",
            events=tuple(
                link_degrade([pep.address], [service.address],
                             at=0.0, loss=loss, symmetric=True)
                for pep in stack.peps.values()
                for service in plane.services
            ),
        ))
        assert len(controller.applied) == 0  # nothing fired yet
    stack.issue_requests(SWEEP_REQUESTS, start_at=0.1)
    stack.run(until=30.0)
    outcomes = stack.outcomes
    assert len(outcomes) == SWEEP_REQUESTS, f"requests hung at loss={loss}"
    bound = storm_backoff()["request_timeout"] + 1e-6
    assert all(o.latency <= bound for o in outcomes), (
        f"latency escaped the whole-request bound at loss={loss}"
    )
    latencies = sorted(o.latency for o in outcomes)
    return {
        "loss": loss,
        "resolved": len(outcomes),
        "granted": sum(1 for o in outcomes if o.granted),
        "timeouts": sum(pep.timeouts for pep in stack.peps.values()),
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
        "p95_latency_s": latencies[int(0.95 * (len(latencies) - 1))],
    }


# -- arm 2: detection under chaos --------------------------------------------------


def run_attack_arm(make_attack, *, chaotic: bool, publish_variants: bool, seed: int):
    plane = ShardedPdpPlane(shards=2)
    stack = MonitoredFederation.build(
        partition_storm_scenario(),
        clouds=2,
        seed=seed,
        with_drams=True,
        drams_config=bench_drams_config(),
        plane=plane,
        policy_plane=ReplicatedPrpPlane(propagation_delay=0.2,
                                        propagation_jitter=0.05),
        pep_kwargs=storm_backoff(),
    )
    stack.start()
    shard_a, shard_b = (service.address for service in plane.services)
    controller = stack.inject_faults(
        storm_plan(shard_a, shard_b) if chaotic else FaultPlan(name="calm")
    )
    adversary = Adversary(stack.drams)
    attack = make_attack()
    adversary.launch(attack, at=ATTACK_AT)
    if isinstance(attack, ReplayAttack):
        # The replay is a discrete act, not an installed interceptor:
        # fire it after the storm heals, with the captured envelope.
        stack.sim.schedule_at(4.0, lambda: attack.replay_now(
            stack.drams, {"subject-id": "mallory", "role": "commander"}))
    for start in WAVE_STARTS:
        stack.issue_requests(WAVE_SIZE, start_at=start)
    if publish_variants:
        for generation in (1, 2, 3):
            stack.publish_policy(variant_document(generation),
                                 at=1.4 + 0.4 * generation)
    stack.run(until=CHAOS_HORIZON)
    total = len(WAVE_STARTS) * WAVE_SIZE
    assert len(stack.outcomes) == total, "chaos lost decisions outright"
    record = adversary.records()[0]
    slos = controller.recorder.slos()
    node = stack.drams.nodes["tenant-2"]
    result = {
        "chaotic": chaotic,
        "detected": record.detected,
        "latency": record.detection_latency,
        "false_positives": len(adversary.false_positives()),
        "timeouts": sum(pep.timeouts for pep in stack.peps.values()),
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
        "slos": slos,
    }
    if chaotic:
        # Every crashed component recovered, promptly, and the rejoined
        # chain node sits on the reference head — no fork.
        assert len(slos["recoveries"]) == 2, (
            f"recoveries incomplete: {slos['recoveries']}"
        )
        assert slos["watches_outstanding"] == 0
        assert slos["max_ttr"] <= TTR_BOUND, f"slow recovery: {slos}"
        assert not node.crashed and not node._syncing
        assert node.resyncs == 1
        # No fork: the rejoined node's head and the reference head lie on
        # one chain (either may lead by a block still propagating).
        reference = stack.drams.reference_chain()
        assert (reference.has_block(node.chain.head.hash)
                or node.chain.has_block(reference.head.hash)), "chain forked"
        assert not plane.crashed(), "a crashed shard never restarted"
    return result


def test_e15_faults(report):
    # -- loss sweep: degradation is graceful -------------------------------
    sweep_rows = [run_loss_arm(loss) for loss in LOSS_RATES]
    assert sweep_rows[0]["timeouts"] == 0 and sweep_rows[0]["failovers"] == 0
    assert sweep_rows[-1]["failovers"] > 0, (
        "heavy loss produced no failover re-routing at all"
    )

    # -- detection under chaos ---------------------------------------------
    attack_rows = []
    for index, (name, make_attack, publish_variants) in enumerate(attack_suite()):
        calm = run_attack_arm(make_attack, chaotic=False,
                              publish_variants=publish_variants,
                              seed=101 + index)
        stormy = run_attack_arm(make_attack, chaotic=True,
                                publish_variants=publish_variants,
                                seed=101 + index)
        assert calm["detected"], f"{name} went undetected on a calm fabric"
        assert stormy["detected"], f"{name} went undetected under the storm"
        assert calm["false_positives"] == 0, (
            f"{name}: calm run raised unattributed alerts"
        )
        assert stormy["false_positives"] == 0, (
            f"{name}: the chaos itself raised unattributed alerts"
        )
        assert stormy["timeouts"] == 0, (
            f"{name}: the storm starved a request of every escape route"
        )
        inflation = (
            stormy["latency"] - calm["latency"]
            if stormy["latency"] is not None and calm["latency"] is not None
            else None
        )
        attack_rows.append({
            "attack": name,
            "calm_latency_s": round(calm["latency"], 2),
            "storm_latency_s": round(stormy["latency"], 2),
            "inflation_s": round(inflation, 2) if inflation is not None else "-",
            "storm_failovers": stormy["failovers"],
            "storm_max_ttr_s": round(stormy["slos"]["max_ttr"], 2),
        })

    report("e15", "\n\n".join([
        format_table(
            [{**row, "p95_latency_s": round(row["p95_latency_s"], 3)}
             for row in sweep_rows],
            title="E15a — link-loss sweep (PEP failover with decorrelated backoff)",
        ),
        format_table(
            attack_rows,
            title="E15b — ten-attack detection, calm vs partition-storm chaos",
        ),
    ]))
    write_json_report("e15", {
        "loss_sweep": sweep_rows,
        "attacks": attack_rows,
        "smoke": SMOKE,
    })
