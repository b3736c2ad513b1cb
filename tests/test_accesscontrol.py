"""PEP / PDP service / PRP / PAP / context handler."""

import pytest

from repro.accesscontrol.context_handler import ContextHandler
from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.analysis.properties import AttributeDomain
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule, Target


def doctors_policy() -> Policy:
    return Policy(
        policy_id="p", rule_combining="first-applicable",
        rules=[
            Rule("allow-doctors", Effect.PERMIT,
                 target=Target.single("string-equal", "doctor",
                                      "subject", "role")),
            Rule("deny", Effect.DENY),
        ])


@pytest.fixture
def deployment():
    sim = Simulator()
    network = Network(sim, SeededRng(9, "ac-tests"), ConstantLatency(0.001))
    prp = PolicyRetrievalPoint()
    pap = PolicyAdministrationPoint(prp, administrator="admin")
    pap.publish(doctors_policy())
    pdp = PdpService(network, "pdp@infra", prp)
    pep = PolicyEnforcementPoint(network, "pep@t1", "tenant-1",
                                 ShardedPdpPlane.over([pdp]), request_timeout=5.0)
    return sim, network, prp, pap, pdp, pep


class TestContextHandler:
    def test_builds_categories(self):
        handler = ContextHandler("tenant-1")
        content = handler.build(subject={"role": "doctor"},
                                resource={"resource-id": "r"},
                                action={"action-id": "read"}, now=3600.0)
        assert content["subject"]["role"] == ["doctor"]
        assert content["environment"]["origin-tenant"] == ["tenant-1"]
        assert content["environment"]["time-of-day"] == [3600.0]

    def test_time_of_day_wraps(self):
        handler = ContextHandler("t")
        content = handler.build(subject={}, resource={}, action={},
                                now=86_400.0 + 60.0)
        assert content["environment"]["time-of-day"] == [60.0]

    def test_extra_environment_merged(self):
        handler = ContextHandler("t")
        content = handler.build(subject={}, resource={}, action={},
                                environment={"emergency": True})
        assert content["environment"]["emergency"] == [True]


class TestMessages:
    def test_payload_hash_ignores_issue_time(self):
        request = AccessRequest(content={"subject": {}}, origin_tenant="t",
                                request_id="req-1", issued_at=1.0)
        later = AccessRequest(content={"subject": {}}, origin_tenant="t",
                              request_id="req-1", issued_at=99.0)
        assert request.payload_hash() == later.payload_hash()

    def test_correlation_depends_on_issue_time(self):
        request = AccessRequest(content={}, origin_tenant="t",
                                request_id="req-1", issued_at=1.0)
        replay = AccessRequest(content={}, origin_tenant="t",
                               request_id="req-1", issued_at=2.0)
        assert request.correlation() != replay.correlation()

    def test_decision_roundtrip(self):
        decision = AccessDecision(request_id="r", decision="Permit",
                                  obligations=[{"obligation_id": "o"}])
        assert AccessDecision.from_dict(decision.to_dict()) == decision

    def test_request_roundtrip(self):
        request = AccessRequest(content={"a": {"b": [1]}}, origin_tenant="t", request_id="req-1")
        restored = AccessRequest.from_dict(request.to_dict())
        assert restored.payload_hash() == request.payload_hash()
        assert restored.correlation() == request.correlation()


class TestPrp:
    def test_publish_and_current(self):
        prp = PolicyRetrievalPoint()
        version = prp.publish(policy_to_dict(doctors_policy()), publisher="me")
        assert version.version == 1
        assert prp.current() is version

    def test_versions_accumulate(self):
        prp = PolicyRetrievalPoint()
        prp.publish(policy_to_dict(doctors_policy()), publisher="me")
        prp.publish(policy_to_dict(doctors_policy()), publisher="me")
        assert prp.version_count() == 2
        assert prp.current().version == 2
        assert prp.get_version(1).version == 1

    def test_fingerprint_is_content_hash(self):
        prp = PolicyRetrievalPoint()
        a = prp.publish(policy_to_dict(doctors_policy()), publisher="me")
        b = prp.publish(policy_to_dict(doctors_policy()), publisher="me")
        assert a.fingerprint == b.fingerprint

    def test_empty_prp_raises(self):
        with pytest.raises(ValidationError):
            PolicyRetrievalPoint().current()

    def test_bad_document_rejected(self):
        with pytest.raises(ValidationError):
            PolicyRetrievalPoint().publish({"kind": "nope"}, publisher="me")

    def test_listeners_notified(self):
        prp = PolicyRetrievalPoint()
        seen = []
        prp.on_publish(lambda v: seen.append(v.version))
        prp.publish(policy_to_dict(doctors_policy()), publisher="me")
        assert seen == [1]


class TestPap:
    def test_publish_object_form(self):
        prp = PolicyRetrievalPoint()
        pap = PolicyAdministrationPoint(prp, administrator="admin")
        version = pap.publish(doctors_policy())
        assert version.publisher == "admin"

    def test_publish_validates_document(self):
        pap = PolicyAdministrationPoint(PolicyRetrievalPoint(), "admin")
        with pytest.raises(Exception):
            pap.publish({"kind": "policy", "policy_id": "p"})

    def test_rejects_wrong_type(self):
        pap = PolicyAdministrationPoint(PolicyRetrievalPoint(), "admin")
        with pytest.raises(ValidationError):
            pap.publish(42)

    def test_change_impact_report(self):
        prp = PolicyRetrievalPoint()
        pap = PolicyAdministrationPoint(prp, administrator="admin")
        domain = AttributeDomain()
        domain.declare("subject", "role", ["doctor", "nurse"])
        domain.declare("action", "action-id", ["read"])
        pap.publish(doctors_policy(), impact_domain=domain)
        assert pap.last_impact_report is None  # first publication
        permissive = Policy(policy_id="p2", rule_combining="first-applicable",
                            rules=[Rule("allow-all", Effect.PERMIT)])
        pap.publish(permissive, impact_domain=domain)
        report = pap.last_impact_report
        assert report is not None and not report.holds


class TestRequestFlow:
    def test_grant_flow(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        outcomes = []
        pep.request_access(subject={"subject-id": "a", "role": "doctor"},
                           resource={"resource-id": "r"},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=2.0)
        assert len(outcomes) == 1
        assert outcomes[0].granted
        assert outcomes[0].latency > 0

    def test_deny_flow(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        outcomes = []
        pep.request_access(subject={"role": "clerk"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=2.0)
        assert not outcomes[0].granted
        assert outcomes[0].decision.decision == "Deny"

    def test_probe_hooks_fire_in_order(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        events = []
        pep.on_request_intercepted.append(lambda r: events.append("pep-in"))
        pdp.on_request_received.append(lambda r: events.append("pdp-in"))
        pdp.on_decision.append(lambda r, d: events.append("pdp-out"))
        pep.on_enforce.append(lambda r, d: events.append("pep-out"))
        pep.request_access(subject={"role": "doctor"}, resource={},
                           action={"action-id": "read"})
        sim.run(until=2.0)
        assert events == ["pep-in", "pdp-in", "pdp-out", "pep-out"]

    def test_timeout_denies(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        network.partition([pep.address], [pdp.address])
        outcomes = []
        pep.request_access(subject={"role": "doctor"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=10.0)
        assert pep.timeouts == 1
        assert outcomes[0].decision.status_code == "timeout"
        assert not outcomes[0].granted

    def test_bypass_skips_pdp(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        pep.bypass = lambda request: AccessDecision(
            request_id=request.request_id, decision="Permit")
        outcomes = []
        pep.request_access(subject={"role": "clerk"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=2.0)
        assert outcomes[0].granted
        assert pdp.requests_served == 0

    def test_policy_update_changes_decisions(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        outcomes = []
        pap.publish(Policy(policy_id="deny-all",
                           rule_combining="first-applicable",
                           rules=[Rule("deny", Effect.DENY)]))
        pep.request_access(subject={"role": "doctor"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=2.0)
        assert not outcomes[0].granted

    def test_pdp_processing_delay_scales_with_rules(self, deployment):
        sim, network, prp, pap, pdp, pep = deployment
        big = Policy(policy_id="big", rule_combining="first-applicable",
                     rules=[Rule(f"r{i}", Effect.DENY,
                                 target=Target.single("string-equal", f"x{i}",
                                                      "subject", "role"))
                            for i in range(100)]
                     + [Rule("allow", Effect.PERMIT)])
        outcomes = []
        pep.request_access(subject={"role": "doctor"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=5.0)
        small_latency = outcomes[0].latency
        pap.publish(big)
        pep.request_access(subject={"role": "doctor"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=10.0)
        assert outcomes[1].latency > small_latency
