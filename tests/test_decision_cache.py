"""Decision cache: LRU bounds, key projection, PDP-service integration."""

import pytest

from repro.accesscontrol.decision_cache import DecisionCache, project_attributes
from repro.accesscontrol.messages import AccessDecision
from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.common.rng import SeededRng
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.parser import policy_from_dict
from repro.xacml.policy import Effect, Policy, Rule, Target


def doctors_policy(policy_id: str = "p") -> Policy:
    return Policy(
        policy_id=policy_id, rule_combining="first-applicable",
        rules=[
            Rule("allow-doctors", Effect.PERMIT,
                 target=Target.single("string-equal", "doctor",
                                      "subject", "role")),
            Rule("deny", Effect.DENY),
        ])


def deny_all_policy(policy_id: str = "deny-all") -> Policy:
    return Policy(policy_id=policy_id, rule_combining="first-applicable",
                  rules=[Rule("deny", Effect.DENY)])


@pytest.fixture
def deployment():
    sim = Simulator()
    network = Network(sim, SeededRng(11, "cache-tests"), ConstantLatency(0.001))
    prp = PolicyRetrievalPoint()
    pap = PolicyAdministrationPoint(prp, administrator="admin")
    pap.publish(doctors_policy())
    pdp = PdpService(network, "pdp@infra", prp)
    pep = PolicyEnforcementPoint(network, "pep@t1", "tenant-1",
                                 ShardedPdpPlane.over([pdp]), request_timeout=5.0)
    return sim, prp, pap, pdp, pep


def ask(sim, pep, outcomes, role="doctor", until=None):
    pep.request_access(subject={"subject-id": "s", "role": role},
                       resource={"resource-id": "r"},
                       action={"action-id": "read"},
                       callback=outcomes.append)
    sim.run(until=until if until is not None else sim.now + 2.0)


class TestDecisionCacheUnit:
    def test_lru_eviction_order(self):
        cache = DecisionCache(max_entries=2)
        response = {"decision": "Permit", "status_code": "ok", "obligations": []}
        cache.put("a", "fp", response)
        cache.put("b", "fp", response)
        assert cache.get("a") is not None  # refresh a → b is now oldest
        cache.put("c", "fp", response)
        assert cache.contains("a") and cache.contains("c")
        assert not cache.contains("b")
        assert cache.evictions == 1

    def test_counters_and_stats(self):
        cache = DecisionCache(max_entries=4)
        assert cache.get("missing") is None
        cache.put("k", "fp", {"decision": "Deny", "status_code": "ok",
                              "obligations": []})
        assert cache.get("k")["decision"] == "Deny"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1

    def test_returned_entries_are_copies(self):
        cache = DecisionCache()
        cache.put("k", "fp", {"decision": "Permit", "status_code": "ok",
                              "obligations": [{"obligation_id": "o",
                                               "attributes": {"reason": "x"}}]})
        first = cache.get("k")
        first["decision"] = "Deny"
        first["obligations"][0]["obligation_id"] = "tampered"
        first["obligations"][0]["attributes"]["reason"] = "tampered"
        second = cache.get("k")
        assert second["decision"] == "Permit"
        assert second["obligations"][0]["obligation_id"] == "o"
        assert second["obligations"][0]["attributes"]["reason"] == "x"

    def test_invalidate_by_fingerprint(self):
        cache = DecisionCache()
        response = {"decision": "Permit", "status_code": "ok", "obligations": []}
        cache.put("a", "fp-1", response)
        cache.put("b", "fp-2", response)
        assert cache.invalidate("fp-1") == 1
        assert not cache.contains("a") and cache.contains("b")
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DecisionCache(max_entries=0)


class TestKeyProjection:
    def test_projection_drops_unreferenced_attributes(self):
        footprint = {("subject", "role"), ("action", "action-id")}
        content = {"subject": {"role": ["doctor"], "shoe-size": [42]},
                   "action": {"action-id": ["read"]},
                   "environment": {"time-of-day": [123.4]}}
        assert project_attributes(content, footprint) == {
            "subject": {"role": ["doctor"]},
            "action": {"action-id": ["read"]},
        }

    def test_irrelevant_attributes_share_one_key(self):
        footprint = {("subject", "role")}
        a = {"subject": {"role": ["doctor"]},
             "environment": {"time-of-day": [1.0]}}
        b = {"subject": {"role": ["doctor"]},
             "environment": {"time-of-day": [999.0]}}
        assert (DecisionCache.request_key("fp", a, footprint)
                == DecisionCache.request_key("fp", b, footprint))

    def test_relevant_attributes_split_keys(self):
        footprint = {("subject", "role")}
        a = {"subject": {"role": ["doctor"]}}
        b = {"subject": {"role": ["nurse"]}}
        assert (DecisionCache.request_key("fp", a, footprint)
                != DecisionCache.request_key("fp", b, footprint))

    def test_fingerprint_splits_keys(self):
        content = {"subject": {"role": ["doctor"]}}
        assert (DecisionCache.request_key("fp-1", content)
                != DecisionCache.request_key("fp-2", content))


class TestPdpServiceIntegration:
    def test_repeated_request_hits_cache(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        outcomes = []
        for _ in range(3):
            ask(sim, pep, outcomes)
        assert [o.granted for o in outcomes] == [True, True, True]
        assert pdp.decision_cache.hits == 2
        assert pdp.decision_cache.misses == 1
        # The policy tree was walked exactly once.
        assert pdp._compiled_current()[1].pdp.evaluations == 1

    def test_cache_hit_shrinks_processing_delay(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        outcomes = []
        ask(sim, pep, outcomes)
        ask(sim, pep, outcomes)
        assert outcomes[1].latency < outcomes[0].latency

    def test_publish_invalidates_cache(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        outcomes = []
        ask(sim, pep, outcomes)
        assert len(pdp.decision_cache) == 1
        pap.publish(deny_all_policy())
        assert len(pdp.decision_cache) == 0
        assert pdp.decision_cache.invalidations == 1
        ask(sim, pep, outcomes)
        assert not outcomes[1].granted  # fresh decision under the new policy

    def test_time_varying_environment_still_hits(self, deployment):
        # time-of-day differs between the two requests (simulated clock
        # advances) but the doctors policy never reads it, so the footprint
        # projection maps both requests onto one cache key.
        sim, prp, pap, pdp, pep = deployment
        outcomes = []
        ask(sim, pep, outcomes)
        sim.run(until=sim.now + 100.0)
        ask(sim, pep, outcomes)
        assert pdp.decision_cache.hits == 1

    def test_pdp_lru_survives_policy_flip_flop(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        a, b = doctors_policy(), deny_all_policy()
        outcomes = []
        for policy in (a, b, a, b, a, b):
            pap.publish(policy)
            ask(sim, pep, outcomes)
        # Two distinct fingerprints → exactly two compilations, ever.
        assert pdp.pdp_compilations == 2
        assert [o.granted for o in outcomes] == [True, False] * 3

    def test_pdp_lru_is_bounded(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        for i in range(pdp.PDP_CACHE_SIZE + 3):
            pap.publish(doctors_policy(policy_id=f"p-{i}"))
            pdp._compiled_current()
        assert len(pdp._pdp_cache) == pdp.PDP_CACHE_SIZE

    def test_policy_override_bypasses_cache(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        outcomes = []
        ask(sim, pep, outcomes, role="clerk")
        assert not outcomes[0].granted
        rogue = PolicyDecisionPoint(policy_from_dict(
            {"kind": "policy", "policy_id": "rogue",
             "rule_combining": "first-applicable",
             "rules": [{"rule_id": "allow-all", "effect": "Permit",
                        "target": None, "condition": None}]}))
        pdp.policy_override = rogue
        before = pdp.decision_cache.stats()
        ask(sim, pep, outcomes, role="clerk")
        assert outcomes[1].granted  # rogue decision served...
        after = pdp.decision_cache.stats()
        assert after["hits"] == before["hits"]  # ...without touching the cache
        assert after["entries"] == before["entries"]
        pdp.policy_override = None
        ask(sim, pep, outcomes, role="clerk")
        assert not outcomes[2].granted  # honest path unpolluted

    def test_tampered_decisions_are_not_cached(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        pdp.evaluation_interceptor = lambda request, decision: AccessDecision(
            request_id=decision.request_id,
            decision="Deny" if decision.decision == "Permit" else "Permit",
            decided_at=decision.decided_at)
        outcomes = []
        ask(sim, pep, outcomes)
        assert not outcomes[0].granted  # tampering flips the emitted decision
        pdp.evaluation_interceptor = None
        ask(sim, pep, outcomes)
        # The cached entry holds the honest pre-interceptor decision.
        assert pdp.decision_cache.hits == 1
        assert outcomes[1].granted

    def test_shared_cache_binds_prp_once(self, deployment):
        sim, prp, pap, pdp, pep = deployment
        listeners_before = len(prp._listeners)
        shared = pdp.decision_cache
        network = Network(sim, SeededRng(13, "cache-share"),
                          ConstantLatency(0.001))
        PdpService(network, "pdp2@infra", prp, decision_cache=shared)
        PdpService(network, "pdp3@infra", prp, decision_cache=shared)
        # The shared cache registered its flush listener exactly once.
        assert len(prp._listeners) == listeners_before

    def test_racing_publish_beats_stale_cache_entry(self, deployment):
        # A policy published inside the receive->evaluate window must win
        # over the cache-key snapshot taken at receipt.
        sim, prp, pap, pdp, pep = deployment
        outcomes = []
        ask(sim, pep, outcomes)  # warm: Permit cached
        assert outcomes[0].granted
        pep.request_access(subject={"subject-id": "s", "role": "doctor"},
                           resource={"resource-id": "r"},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        # Network latency is 1ms, PDP hit-delay 0.5ms: land the publish
        # between the PDP receiving the request and deciding it.
        sim.schedule(0.00115, lambda: pap.publish(deny_all_policy()))
        sim.run(until=sim.now + 2.0)
        assert not outcomes[1].granted
