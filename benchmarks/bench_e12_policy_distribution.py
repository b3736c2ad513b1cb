"""E12 — policy distribution: replicated PRPs under mid-traffic churn.

PR 4 turns the PRP singleton into a distribution plane: each PDP shard and
the Analyser own a replica fed by delayed publish propagation plus
anti-entropy, decisions are stamped with the policy ``(version,
fingerprint)`` they were evaluated under, and the monitor classifies
provenance mismatches as ``policy-churn`` (honest skew within the
staleness bound) versus ``policy-violation`` (unknown fingerprint or skew
beyond the bound).  This experiment measures what that costs and catches:

- **churn sweep** — the ``policy-churn`` scenario (policy republished
  mid-traffic) over increasing propagation delays.  Monitored
  decisions/sec must not degrade with the delay (policy distribution is
  off the request hot path), honest skew must raise *zero*
  policy-violation and incorrect-decision alerts, and the Analyser's
  churn counter shows the skew the plane actually produced.
- **detection arm** — a ``TamperedPrpReplicaAttack`` and a
  ``StalePolicyReplayAttack`` against a replicated plane must both be
  detected with zero unattributed alerts (the fidelity bar the E6
  detection benchmark sets for the original catalogue).

The default wiring (``SingleStorePlane``) is pinned by digest in tier-1
(``tests/test_golden_monitored_run.py``); the arm that re-assembled the
pre-plane wiring by hand to compare against it went with the bare-store
calling convention it was the last user of.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import bench_drams_config, write_json_report
from repro.drams.alerts import AlertType
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.policydist import ReplicatedPrpPlane
from repro.threats import Adversary, StalePolicyReplayAttack, TamperedPrpReplicaAttack
from repro.workload.scenarios import policy_churn_scenario
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REQUESTS = 80 if SMOKE else 160
DETECT_REQUESTS = 40 if SMOKE else 60

#: Propagation delays swept by the churn arms (seconds of simulated time).
PROPAGATION_DELAYS = (0.05, 0.4, 1.2)

#: Publish schedule for the churn arms: the scenario's policy variants go
#: out at these simulated times, inside the request arrival window.
PUBLISH_TIMES = (1.0, 2.2) if SMOKE else (1.5, 3.5, 5.5)

#: Staleness bound for the sweep: wide enough that the slowest arm's
#: honest lag (propagation + one anti-entropy round against the publish
#: spacing) stays within it.  Operators size this exactly the same way.
SWEEP_STALENESS_BOUND = 2


def churn_config(**overrides):
    defaults = dict(
        policy_staleness_bound=SWEEP_STALENESS_BOUND,
        unknown_policy_grace=6.0,
    )
    defaults.update(overrides)
    return bench_drams_config(**defaults)


def run_churn_arm(delay):
    scenario = policy_churn_scenario()
    stack = MonitoredFederation.build(
        scenario,
        clouds=2,
        seed=91,
        drams_config=churn_config(),
        policy_plane=ReplicatedPrpPlane(
            propagation_delay=delay,
            propagation_jitter=delay * 0.1,
            anti_entropy_interval=1.5,
        ),
    )
    stack.start()
    stack.issue_requests(REQUESTS)
    for at, document in zip(PUBLISH_TIMES, scenario.policy_variants):
        stack.publish_policy(document, at=at)
    stack.run(until=120.0)
    assert len(stack.outcomes) == REQUESTS, f"delay={delay} arm lost requests"
    assert sum(pep.timeouts for pep in stack.peps.values()) == 0
    first = min(o.requested_at for o in stack.outcomes)
    last = max(o.enforced_at for o in stack.outcomes)
    makespan = last - first
    analyser = stack.drams.analyser
    alerts = stack.drams.alerts
    versions_seen = sorted({o.decision.policy_version for o in stack.outcomes})

    # Ground-truth skew: decisions stamped with a version that the
    # authority store had already superseded at decision time.  This is
    # the honest churn the propagation delay manufactures — it grows with
    # the delay, and none of it may read as a violation.
    history = stack.prp.history()

    def in_force_at(when):
        current = history[0].version
        for version in history:
            if version.published_at <= when:
                current = version.version
        return current

    stale_decisions = sum(
        1
        for o in stack.outcomes
        if o.decision.policy_version
        and o.decision.policy_version < in_force_at(o.decision.decided_at)
    )
    return {
        "delay": delay,
        "rate": REQUESTS / makespan if makespan > 0 else float("inf"),
        "checked": analyser.checked,
        "stale_decisions": stale_decisions,
        "churn_observed": analyser.churn_observed,
        "policy_violations": alerts.count(AlertType.POLICY_VIOLATION),
        "incorrect_decisions": alerts.count(AlertType.INCORRECT_DECISION),
        "total_alerts": alerts.count(),
        "versions_seen": versions_seen,
        "converged": stack.policy_plane.converged(),
    }


# -- detection arm ----------------------------------------------------------------


def rogue_policy_document():
    return policy_to_dict(
        Policy(
            policy_id="rogue-permit-all",
            rule_combining="permit-overrides",
            rules=[Rule("allow-everything", Effect.PERMIT)],
        )
    )


def run_detection_arm(attack, publish_variants, seed):
    scenario = policy_churn_scenario()
    stack = MonitoredFederation.build(
        scenario,
        clouds=2,
        seed=seed,
        drams_config=bench_drams_config(),
        policy_plane=ReplicatedPrpPlane(propagation_delay=0.2, propagation_jitter=0.05),
    )
    stack.start()
    adversary = Adversary(stack.drams)
    adversary.launch(attack, at=0.6)
    stack.issue_requests(DETECT_REQUESTS)
    if publish_variants:
        for index, document in enumerate(scenario.policy_variants):
            stack.publish_policy(document, at=0.8 + 0.4 * index)
    stack.run(until=90.0)
    record = adversary.records()[0]
    return {
        "attack": attack.name,
        "detected": record.detected,
        "latency": record.detection_latency,
        "alerts": sorted({a.alert_type.value for a in record.matched_alerts}),
        "false_positives": len(adversary.false_positives()),
    }


def test_e12_policy_distribution(report):
    rows = []
    json_rows = []
    churn_total = 0
    for delay in PROPAGATION_DELAYS:
        result = run_churn_arm(delay)
        churn_total += result["churn_observed"]
        rows.append(
            {
                "propagation_delay_s": delay,
                "sim_decisions_per_s": round(result["rate"], 1),
                "checked": result["checked"],
                "stale_decisions": result["stale_decisions"],
                "churn_observed": result["churn_observed"],
                "policy_violations": result["policy_violations"],
                "incorrect_decisions": result["incorrect_decisions"],
                "versions": "/".join(str(v) for v in result["versions_seen"]),
            }
        )
        json_rows.append(result)
        # Alert precision: honest propagation skew within the staleness
        # bound must never read as a violation.
        assert result["policy_violations"] == 0, (
            f"honest churn at delay={delay} raised policy-violation alerts"
        )
        assert result["incorrect_decisions"] == 0, (
            f"honest churn at delay={delay} raised incorrect-decision alerts"
        )
        assert result["converged"], f"delay={delay} arm did not converge"

    # Decisions were made under more than one policy version (the churn
    # actually happened), slower propagation produced more stale-but-honest
    # decisions, and rates do not collapse with the delay.
    assert len(json_rows[-1]["versions_seen"]) > 1, "no mid-traffic churn occurred"
    assert json_rows[-1]["stale_decisions"] > 0, "slowest arm produced no version skew to classify"
    assert json_rows[-1]["stale_decisions"] >= json_rows[0]["stale_decisions"], (
        "stale decisions did not grow with the propagation delay"
    )
    slowest = json_rows[-1]["rate"]
    fastest = json_rows[0]["rate"]
    assert slowest >= 0.8 * fastest, (
        f"propagation delay degraded decision throughput: {fastest:.1f} -> "
        f"{slowest:.1f} decisions/s"
    )

    # Detection: the policy-plane attacks meet the E6 fidelity bar.
    detections = [
        run_detection_arm(
            TamperedPrpReplicaAttack(rogue_policy_document()),
            publish_variants=False,
            seed=93,
        ),
        run_detection_arm(StalePolicyReplayAttack(), publish_variants=True, seed=94),
    ]
    for detection in detections:
        assert detection["detected"], f"{detection['attack']} went undetected"
        assert detection["false_positives"] == 0, (
            f"{detection['attack']} produced unattributed alerts"
        )

    mode = ", smoke" if SMOKE else ""
    table = format_table(
        rows,
        title=(
            f"E12: policy distribution ({REQUESTS} requests, policy-churn "
            f"scenario, {len(PUBLISH_TIMES)} mid-traffic publishes{mode})"
        ),
    )
    report("e12_policy_distribution", table)
    write_json_report(
        "e12",
        {
            "rows": json_rows,
            "publish_times": list(PUBLISH_TIMES),
            "staleness_bound": SWEEP_STALENESS_BOUND,
            "churn_observed_total": churn_total,
            "detections": detections,
        },
    )
