"""E6 — attack detection: DRAMS vs the centralized-logger baseline.

The paper's core claim: DRAMS "is able to detect attacks to the components
involved in an access control decision [and] is also resilient to attacks
targeting the integrity of the logs or of the monitoring components".

Three arms, same attacks, same probes:

1. **DRAMS** — detection expected for every attack class;
2. **Centralized baseline, honest collector** — also detects component
   attacks: it runs DRAMS's own rules (``repro.drams.rules``, held equal by
   ``tests/test_monitor_parity.py``), so the architectures differ in
   resilience, not in happy-path capability;
3. **Centralized baseline, compromised collector** — the attacker owns the
   one collector host: detection collapses to zero and the evidence is
   gone.  DRAMS under the analogous compromise (one tenant's LI silenced)
   keeps detecting via the remaining tenants' replicas.
"""

from types import SimpleNamespace

from benchmarks.common import bench_drams_config, build_stack
from repro.baselines.central import attach_centralized_monitoring
from repro.drams.alerts import AlertType
from repro.harness import MonitoredFederation
from repro.metrics.detection import DetectionScorer
from repro.metrics.tables import format_table
from repro.threats.adversary import Adversary
from repro.threats.attacks import (
    CircumventionAttack,
    DecisionTamperAttack,
    EvaluationTamperAttack,
    PolicySwapAttack,
    ProbeSuppressionAttack,
    RequestTamperAttack,
)
from repro.workload.scenarios import healthcare_scenario
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule

REQUESTS = 12
HORIZON = 60.0


def attack_suite():
    rogue = policy_to_dict(Policy(
        policy_id="rogue", rule_combining="permit-overrides",
        rules=[Rule("allow-all", Effect.PERMIT)]))
    return [
        ("request-tamper", lambda: RequestTamperAttack(
            "tenant-1", escalated_value="doctor")),
        ("decision-tamper", lambda: DecisionTamperAttack("tenant-2")),
        ("pdp-circumvention", lambda: CircumventionAttack("tenant-1")),
        ("evaluation-tamper", lambda: EvaluationTamperAttack()),
        ("policy-swap", lambda: PolicySwapAttack(rogue)),
        ("probe-suppression", lambda: ProbeSuppressionAttack("pep:tenant-1")),
    ]


def run_drams_arm(seed_base: int) -> tuple[list[dict], DetectionScorer]:
    rows = []
    scorer = DetectionScorer()
    for index, (name, make_attack) in enumerate(attack_suite()):
        stack = build_stack(seed=seed_base + index,
                            drams_config=bench_drams_config())
        adversary = Adversary(stack.drams)
        adversary.launch(make_attack(), at=0.5)
        stack.issue_requests(REQUESTS)
        stack.run(until=HORIZON)
        record = adversary.records()[0]
        scorer.add_all([record], false_positives=len(adversary.false_positives()))
        rows.append({
            "attack": name,
            "drams": "detected" if record.detected else "MISSED",
            "drams_latency_s": (round(record.detection_latency, 2)
                                if record.detection_latency is not None else "-"),
        })
    return rows, scorer


def run_baseline_arm(seed_base: int, compromised: bool) -> list[dict]:
    rows = []
    for index, (name, make_attack) in enumerate(attack_suite()):
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=seed_base + index,
            with_drams=False)
        monitor, probes = attach_centralized_monitoring(
            stack.federation, stack.plane, stack.peps, stack.prp,
            timeout_seconds=4.0)
        monitor.start()
        if compromised:
            monitor.compromise()
        # The same attack objects as the DRAMS arm, injected into what they
        # reach through a DramsSystem: the baseline's own components.
        make_attack().inject(SimpleNamespace(
            federation=stack.federation, peps=stack.peps,
            pdp_service=stack.pdp_service, probes=probes))
        stack.issue_requests(REQUESTS)
        stack.run(until=HORIZON)
        detected = monitor.alerts.count() > 0
        first = min((alert.raised_at for alert in monitor.alerts.all()),
                    default=None)
        rows.append({
            "attack": name,
            "detected": "detected" if detected else "MISSED",
            "latency_s": round(first - 0.5, 2) if first is not None else "-",
        })
    return rows


def test_e6_detection_comparison(report, benchmark):
    drams_rows, drams_scorer = run_drams_arm(seed_base=600)
    honest_rows = run_baseline_arm(seed_base=700, compromised=False)
    blinded_rows = run_baseline_arm(seed_base=800, compromised=True)

    merged = []
    for drams_row, honest, blinded in zip(drams_rows, honest_rows, blinded_rows):
        merged.append({
            "attack": drams_row["attack"],
            "drams": drams_row["drams"],
            "drams_lat_s": drams_row["drams_latency_s"],
            "central(honest)": honest["detected"],
            "central_lat_s": honest["latency_s"],
            "central(compromised)": blinded["detected"],
        })
    table = format_table(
        merged, title="E6: detection per attack — DRAMS vs centralized logger")
    summary = drams_scorer.summary()
    footer = (f"DRAMS: {summary.detected}/{summary.attacks} detected, "
              f"mean latency {summary.mean_latency:.2f}s, "
              f"{summary.false_positives} unattributed alerts")
    report("e6_detection", table + "\n" + footer)

    # Shape 1: DRAMS detects every attack class.
    assert all(row["drams"] == "detected" for row in merged)
    # Shape 2: the honest centralized baseline also detects component
    # attacks (the gap is resilience, not matching power).
    assert sum(row["central(honest)"] == "detected" for row in merged) >= 5
    # Shape 3: the compromised collector detects nothing — the single
    # point of failure the paper's decentralisation removes.
    assert all(row["central(compromised)"] == "MISSED" for row in merged)
    # Shape 4: no false accusations from DRAMS.
    assert summary.false_positives == 0

    benchmark.pedantic(lambda: run_drams_arm(seed_base=900)[1].summary(),
                       rounds=1, iterations=1)


def test_e6_drams_survives_tenant_monitor_compromise(report, benchmark):
    """The resilience arm: silence one tenant's own monitoring, DRAMS
    still exposes it through the other tenants' replicas."""
    stack = build_stack(seed=950, drams_config=bench_drams_config())
    pep = stack.peps["tenant-1"]
    import copy

    def force_permit(request, decision):
        forged = copy.deepcopy(decision)
        forged.decision = "Permit"
        return forged

    pep.enforcement_interceptor = force_permit
    stack.drams.probes["pep:tenant-1"].suppressed = True  # hide the evidence
    stack.issue_requests(REQUESTS)
    stack.run(until=HORIZON)
    missing = stack.drams.alerts.count(AlertType.MISSING_LOG)
    table = format_table([{
        "scenario": "tenant-1 fully compromised (tamper + silence own probe)",
        "missing_log_alerts": missing,
        "detected": "yes" if missing > 0 else "no",
    }], title="E6b: DRAMS under monitoring-component compromise")
    report("e6_detection", table)
    assert missing > 0

    benchmark(lambda: stack.drams.alerts.count(AlertType.MISSING_LOG))
