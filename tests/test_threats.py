"""End-to-end attack detection: every threat class against a live deployment."""

from typing import Callable, NamedTuple, Optional

import pytest

from repro.drams.alerts import AlertType
from repro.harness import MonitoredFederation
from repro.policydist import ReplicatedPrpPlane
from repro.threats.adversary import Adversary
from repro.threats.attacks import (
    ATTACK_CATALOGUE,
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
from repro.workload.scenarios import healthcare_scenario
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule
from tests.conftest import fast_drams_config


def build_stack(seed=50, policy_plane=None, **config_overrides) -> MonitoredFederation:
    stack = MonitoredFederation.build(
        healthcare_scenario(), clouds=2, seed=seed,
        drams_config=fast_drams_config(**config_overrides), policy_plane=policy_plane)
    stack.start()
    return stack


ROGUE_POLICY = policy_to_dict(Policy(
    policy_id="rogue", rule_combining="permit-overrides",
    rules=[Rule("allow-everything", Effect.PERMIT)]))


def replay_later(stack, attack):
    stack.sim.schedule(10.0, lambda: attack.replay_now(
        stack.drams, {"subject-id": "mallory", "role": "doctor"}))


def republish_twice(stack, attack):
    """Two versions that change no decision: a frozen replica falls out of bound."""
    for revision, at in ((1, 0.8), (2, 1.2)):
        document = {**stack.scenario.policy_document, "description": f"rev-{revision}"}
        stack.publish_policy(document, at=at)


class Lifted(NamedTuple):
    """A catalogue entry built the way its detection test builds it."""

    build: Callable[[], object]
    #: DRAMS config overrides that detection test needs.
    config: dict = {}
    #: The PRP attacks need one replica per consumer.
    replicated: bool = False
    #: What the detection test does when honest traffic alone would not
    #: show the compromise.
    provoke: Optional[Callable] = None


LIFTED = {
    "request-tamper": Lifted(lambda: RequestTamperAttack("tenant-1", escalated_value="doctor")),
    "decision-tamper": Lifted(lambda: DecisionTamperAttack("tenant-1")),
    "pdp-circumvention": Lifted(lambda: CircumventionAttack("tenant-1")),
    "evaluation-tamper": Lifted(EvaluationTamperAttack),
    "policy-swap": Lifted(lambda: PolicySwapAttack(ROGUE_POLICY)),
    "probe-suppression": Lifted(lambda: ProbeSuppressionAttack("pep:tenant-1")),
    "log-tamper": Lifted(lambda: LogTamperAttack("tenant-1"),
                         config={"use_tpm": True, "attestation_interval": 2.0}),
    "replay": Lifted(lambda: ReplayAttack("tenant-1"), provoke=replay_later),
    "stale-policy-replay": Lifted(StalePolicyReplayAttack, replicated=True,
                                  provoke=republish_twice),
    "tampered-prp-replica": Lifted(lambda: TamperedPrpReplicaAttack(ROGUE_POLICY),
                                   replicated=True),
}


def run_attack(attack, seed=50, requests=8, horizon=40.0, **config_overrides):
    stack = build_stack(seed=seed, **config_overrides)
    adversary = Adversary(stack.drams)
    adversary.launch(attack, at=0.2)
    stack.issue_requests(requests)
    stack.run(until=horizon)
    assert len(stack.outcomes) == requests
    # Every alert of a single-attack run is the attack's own.
    assert adversary.false_positives() == []
    return stack, adversary, adversary.records()[0]


class TestComponentAttacks:
    def test_request_tamper_detected(self):
        attack = RequestTamperAttack("tenant-1", escalated_value="doctor")
        stack, adversary, record = run_attack(attack, seed=51)
        assert record.detected
        assert {a.alert_type for a in record.matched_alerts} == {
            AlertType.REQUEST_MISMATCH}

    def test_decision_tamper_detected(self):
        attack = DecisionTamperAttack("tenant-2")
        stack, adversary, record = run_attack(attack, seed=52)
        assert record.detected
        assert record.detection_latency is not None
        assert record.detection_latency < 20.0

    def test_circumvention_detected_via_timeout(self):
        attack = CircumventionAttack("tenant-1")
        stack, adversary, record = run_attack(attack, seed=53)
        assert record.detected
        assert {a.alert_type for a in record.matched_alerts} == {
            AlertType.MISSING_LOG}

    def test_evaluation_tamper_detected_by_analyser(self):
        attack = EvaluationTamperAttack()
        stack, adversary, record = run_attack(attack, seed=54)
        assert record.detected
        assert {a.alert_type for a in record.matched_alerts} == {
            AlertType.INCORRECT_DECISION}

    def test_policy_swap_detected_by_analyser(self):
        rogue = policy_to_dict(Policy(
            policy_id="rogue", rule_combining="permit-overrides",
            rules=[Rule("allow-everything", Effect.PERMIT)]))
        attack = PolicySwapAttack(rogue)
        stack, adversary, record = run_attack(attack, seed=55)
        assert record.detected


class TestMonitoringAttacks:
    def test_probe_suppression_detected(self):
        attack = ProbeSuppressionAttack("pep:tenant-1")
        stack, adversary, record = run_attack(attack, seed=56)
        assert record.detected
        assert {a.alert_type for a in record.matched_alerts} == {
            AlertType.MISSING_LOG}

    def test_pdp_probe_suppression_detected(self):
        attack = ProbeSuppressionAttack("pdp")
        stack, adversary, record = run_attack(attack, seed=57)
        assert record.detected

    def test_log_tamper_without_tpm_detected_as_mismatch(self):
        attack = LogTamperAttack("tenant-1")
        stack, adversary, record = run_attack(attack, seed=58, use_tpm=False)
        assert record.detected
        assert AlertType.DECISION_MISMATCH in {
            a.alert_type for a in record.matched_alerts}

    def test_log_tamper_with_tpm_silences_and_flags_li(self):
        attack = LogTamperAttack("tenant-1")
        stack, adversary, record = run_attack(
            attack, seed=59, use_tpm=True, attestation_interval=2.0)
        assert record.detected
        types = {a.alert_type for a in record.matched_alerts}
        assert AlertType.ATTESTATION_FAILURE in types or \
            AlertType.MISSING_LOG in types
        li = stack.drams.interfaces["tenant-1"]
        assert li.key_failures > 0  # the sealed key was denied

    def test_replay_detected_as_equivocation(self):
        stack = build_stack(seed=60)
        adversary = Adversary(stack.drams)
        attack = ReplayAttack("tenant-1")
        adversary.launch(attack, at=0.2)
        stack.issue_requests(6)
        stack.sim.schedule(10.0, lambda: attack.replay_now(
            stack.drams, {"subject-id": "mallory", "role": "doctor"}))
        stack.run(until=40.0)
        record = adversary.records()[0]
        assert record.detected
        assert {a.alert_type for a in record.matched_alerts} == {
            AlertType.EQUIVOCATION}
        assert len(stack.outcomes) == 6
        assert adversary.false_positives() == []


class TestAdversaryScoring:
    def test_no_attack_no_detection(self):
        stack = build_stack(seed=61)
        adversary = Adversary(stack.drams)
        stack.issue_requests(6)
        stack.run(until=30.0)
        assert adversary.records() == []
        assert adversary.false_positives() == []

    def test_honest_traffic_produces_no_false_positives_during_attack(self):
        attack = DecisionTamperAttack("tenant-1")
        stack, adversary, record = run_attack(attack, seed=62, requests=10)
        assert record.detected
        assert adversary.false_positives() == []

    @pytest.mark.parametrize("name", sorted(ATTACK_CATALOGUE))
    def test_lift_stops_the_attack(self, name):
        assert set(LIFTED) == set(ATTACK_CATALOGUE)
        case = LIFTED[name]
        policy_plane = ReplicatedPrpPlane(propagation_delay=0.2) if case.replicated else None
        stack = build_stack(seed=63, policy_plane=policy_plane, **case.config)
        adversary = Adversary(stack.drams)
        attack = adversary.launch(case.build())
        assert attack.active
        adversary.lift_all()
        assert not attack.active
        if case.provoke is not None:
            case.provoke(stack, attack)
        stack.issue_requests(6)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 6
        assert stack.drams.alerts.all() == []

    def test_detection_rate_aggregates(self):
        stack = build_stack(seed=64)
        adversary = Adversary(stack.drams)
        # Two attacks on different tenants and different legs (a PDP-side
        # evaluation tamper would mask a PEP-side forced Permit, so pick
        # non-interacting ones).
        adversary.launch(RequestTamperAttack("tenant-1",
                                             escalated_value="doctor"), at=0.2)
        adversary.launch(DecisionTamperAttack("tenant-2"), at=0.2)
        stack.issue_requests(10)
        stack.run(until=40.0)
        assert [record.detected for record in adversary.records()] == [True, True]

    def test_interacting_attacks_can_mask_each_other(self):
        # Documented limitation: if the PDP already flips every Deny to
        # Permit, a PEP that forces Permit produces no decision mismatch —
        # the analyser still catches the PDP, but the PEP tamper is
        # unobservable (it changes nothing).
        stack = build_stack(seed=66)
        adversary = Adversary(stack.drams)
        adversary.launch(EvaluationTamperAttack(), at=0.2)
        adversary.launch(DecisionTamperAttack("tenant-1"), at=0.2)
        stack.issue_requests(10)
        stack.run(until=40.0)
        by_name = {record.attack_name: record for record in adversary.records()}
        assert by_name["evaluation-tamper"].detected

    def test_unknown_tenant_rejected(self):
        stack = build_stack(seed=65)
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            RequestTamperAttack("ghost-tenant").inject(stack.drams)

    def test_catalogue_lists_all_attacks(self):
        assert set(ATTACK_CATALOGUE) == {
            "request-tamper", "decision-tamper", "pdp-circumvention",
            "evaluation-tamper", "policy-swap", "probe-suppression",
            "log-tamper", "replay", "stale-policy-replay",
            "tampered-prp-replica"}
