"""Decision plane: routing, failover, cache coherence, monitoring coverage."""

import pytest

from repro.accesscontrol.decision_cache import DecisionCache
from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.harness import MonitoredFederation
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Host, Network
from repro.simnet.simulator import Simulator
from repro.workload.scenarios import healthcare_scenario
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule, Target
from tests.conftest import fast_drams_config


def doctors_policy() -> Policy:
    return Policy(
        policy_id="p", rule_combining="first-applicable",
        rules=[
            Rule("allow-doctors", Effect.PERMIT,
                 target=Target.single("string-equal", "doctor",
                                      "subject", "role")),
            Rule("deny", Effect.DENY),
        ])


def deny_all_policy() -> Policy:
    return Policy(policy_id="deny-all", rule_combining="first-applicable",
                  rules=[Rule("deny", Effect.DENY)])


class _StubService:
    """Just enough surface for routing-only plane tests."""

    def __init__(self, address):
        self.address = address
        self.decision_cache = None
        self.requests_served = 0


class FakePdp(Host):
    """Scriptable shard: silent, or replies with a fixed decision."""

    def __init__(self, network, address, decision="Permit", delay=0.001,
                 silent=False, reply_count=1):
        super().__init__(network, address)
        self.decision = decision
        self.delay = delay
        self.silent = silent
        self.reply_count = reply_count
        self.seen = []
        self.decision_cache = None
        self.requests_served = 0

    def receive(self, message):
        if message.kind != "ac_request":
            return
        request = AccessRequest.from_dict(message.payload)
        self.seen.append(request)
        self.requests_served += 1
        if self.silent:
            return
        for _ in range(self.reply_count):
            def reply(src=message.src, request_id=request.request_id):
                self.send(src, "ac_response", AccessDecision(
                    request_id=request_id, decision=self.decision,
                    decided_at=self.sim.now).to_dict())
            self.sim.schedule(self.delay, reply)


def request_with(role="doctor", time_of_day=1.0, origin="tenant-1", request_id="req-1"):
    return AccessRequest(
        content={"subject": {"role": [role]},
                 "action": {"action-id": ["read"]},
                 "environment": {"time-of-day": [time_of_day],
                                 "origin-tenant": [origin]}},
        origin_tenant=origin, request_id=request_id)


class TestSinglePlane:
    def test_wrap_adopts_service(self, network):
        prp = PolicyRetrievalPoint()
        pdp = PdpService(network, "pdp@infra", prp)
        plane = ShardedPdpPlane.over([pdp])
        assert plane.services == [pdp]
        assert plane.endpoints(request_with()) == ("pdp@infra",)

    def test_is_the_one_shard_pool_under_its_historical_name(self):
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2, seed=24,
                                          with_drams=True,
                                          drams_config=fast_drams_config())
        plane = stack.plane
        assert isinstance(plane, SinglePdpPlane) and isinstance(plane, ShardedPdpPlane)
        assert [s.address for s in plane.services] == ["pdp@infrastructure"]
        assert stack.drams.probes["pdp"].component_host is plane.services[0]
        # Only the constructor and the name are its own.
        assert {name for name, value in vars(SinglePdpPlane).items() if callable(value)} == {
            "__init__", "_shard_name"}

    def test_undeployed_plane_rejects_routing(self):
        with pytest.raises(ValidationError):
            SinglePdpPlane().endpoints(request_with())

    def test_pep_rejects_raw_address(self, network):
        with pytest.raises(ValidationError, match="expected a ShardedPdpPlane"):
            PolicyEnforcementPoint(network, "pep@t1", "tenant-1", "pdp@infra")
        # The failed construction must not have leaked the address.
        PolicyEnforcementPoint(network, "pep@t1", "tenant-1",
                               ShardedPdpPlane.over([_StubService("pdp@infra")]))

    def test_pep_rejects_bare_service(self, sim, network):
        prp = PolicyRetrievalPoint()
        PolicyAdministrationPoint(prp, "admin").publish(doctors_policy())
        pdp = PdpService(network, "pdp@infra", prp)
        with pytest.raises(ValidationError, match="expected a ShardedPdpPlane"):
            PolicyEnforcementPoint(network, "pep@t1", "tenant-1", pdp)
        pep = PolicyEnforcementPoint(network, "pep@t1", "tenant-1", ShardedPdpPlane.over([pdp]))
        outcomes = []
        pep.request_access(subject={"role": "doctor"}, resource={},
                           action={"action-id": "read"},
                           callback=outcomes.append)
        sim.run(until=2.0)
        assert outcomes and outcomes[0].granted


class TestShardedRouting:
    def make_plane(self, shards=3, prp=None, **kwargs):
        services = [_StubService(f"pdp-{i}@infra") for i in range(shards)]
        return ShardedPdpPlane.over(services, prp=prp, **kwargs)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardedPdpPlane(shards=0)
        with pytest.raises(ValidationError):
            ShardedPdpPlane.over([])

    def test_endpoints_cover_all_shards_once(self):
        plane = self.make_plane(shards=4)
        endpoints = plane.endpoints(request_with())
        assert len(endpoints) == 4
        assert sorted(endpoints) == sorted(s.address for s in plane.services)

    def test_routing_is_deterministic(self):
        plane = self.make_plane(shards=4)
        again = self.make_plane(shards=4)
        for role in ("doctor", "nurse", "clerk", "auditor"):
            request = request_with(role=role)
            assert plane.endpoints(request) == again.endpoints(request)

    def test_requests_spread_over_shards(self):
        plane = self.make_plane(shards=4)
        primaries = {plane.endpoints(request_with(role=f"role-{i}"))[0]
                     for i in range(24)}
        assert len(primaries) >= 2

    def test_cache_key_affinity(self):
        # The ring keys on the decision-cache key: attributes outside the
        # policy footprint (time-of-day here) must not change the route.
        prp = PolicyRetrievalPoint()
        prp.publish(policy_to_dict(doctors_policy()), publisher="t")
        plane = self.make_plane(shards=4, prp=prp)
        early = request_with(time_of_day=1.0)
        late = request_with(time_of_day=9999.0)
        assert plane.route_key(early) == plane.route_key(late)
        assert plane.endpoints(early) == plane.endpoints(late)
        # Footprint attributes do fragment the key space.
        assert plane.route_key(early) != plane.route_key(request_with(role="nurse"))

    def test_route_key_without_policy_uses_raw_content(self):
        plane = self.make_plane(shards=2, prp=PolicyRetrievalPoint())
        a = request_with(time_of_day=1.0)
        b = request_with(time_of_day=2.0)
        assert plane.route_key(a) != plane.route_key(b)  # nothing to project onto

    def test_single_shard_short_circuits(self):
        plane = self.make_plane(shards=1)
        assert plane.endpoints(request_with()) == ("pdp-0@infra",)

    def test_routing_prp_not_shared_with_services_falls_back(self, network):
        # The routing PRP has a policy but the adopted primary's own PRP
        # is empty: routing must fall back to a local footprint compile
        # instead of crashing in the primary's current() lookup.
        routing_prp = PolicyRetrievalPoint()
        routing_prp.publish(policy_to_dict(doctors_policy()), publisher="t")
        primary = PdpService(network, "pdp-real@infra", PolicyRetrievalPoint())
        plane = ShardedPdpPlane.over([primary, _StubService("pdp-1@infra")],
                                     prp=routing_prp)
        endpoints = plane.endpoints(request_with())
        assert len(endpoints) == 2

    def test_over_rejects_deploy_only_knobs(self):
        services = [_StubService("pdp-0@infra")]
        with pytest.raises(TypeError):
            ShardedPdpPlane.over(services, service_kwargs={})


class TestHarnessIntegration:
    def test_default_build_uses_single_plane(self):
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=21, with_drams=False)
        assert isinstance(stack.plane, SinglePdpPlane)
        assert stack.pdp_service is stack.plane.services[0]
        assert stack.pdp_service.address == "pdp@infrastructure"

    def test_sharded_build_deploys_replicas(self):
        plane = ShardedPdpPlane(shards=3)
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=22, with_drams=False, plane=plane)
        assert [s.address for s in stack.pdp_services] == [
            "pdp-0@infrastructure", "pdp-1@infrastructure", "pdp-2@infrastructure"]
        infra_hosts = stack.federation.infrastructure_tenant.host_addresses
        for service in stack.pdp_services:
            assert service.address in infra_hosts
        stack.issue_requests(12)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 12
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0
        served = [s.requests_served for s in stack.pdp_services]
        assert sum(served) == 12
        assert sum(1 for count in served if count) >= 2  # load actually spreads

    def test_sharded_decisions_match_single_plane(self):
        def run(plane):
            stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                              seed=23, with_drams=False,
                                              plane=plane)
            stack.issue_requests(20)
            stack.run(until=60.0)
            return stack.fingerprint()["decisions"]

        single = run(None)
        sharded = run(ShardedPdpPlane(shards=4))
        assert single == sharded


class TestDramsCoverage:
    def test_probes_attach_to_every_replica(self):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=24, drams_config=fast_drams_config(),
                                          plane=plane)
        stack.start()
        assert {"pdp", "pdp:1"} <= set(stack.drams.probes)
        assert stack.drams.pdp_service is plane.services[0]
        assert stack.drams.pdp_services == plane.services
        stack.issue_requests(10)
        stack.run(until=40.0)
        assert len(stack.outcomes) == 10
        served = [s.requests_served for s in plane.services]
        assert sum(served) == 10
        observed = (stack.drams.probes["pdp"].observations
                    + stack.drams.probes["pdp:1"].observations)
        assert observed == 2 * sum(served)  # pdp-in + pdp-out per decision
        assert stack.drams.alerts.count() == 0
        # Every monitored decision was independently re-derived, and the
        # pending-correlation index drained along the way.
        assert stack.drams.analyser.checked == 10
        assert stack.drams.analyser.pending_correlations == 0
        assert stack.drams.analyser.sweep() == 0

    def test_monitoring_rejects_undeployed_plane(self):
        from repro.drams.probe import attach_plane_probes
        with pytest.raises(ValidationError, match="no deployed evaluator"):
            attach_plane_probes(SinglePdpPlane(), "infra", "li@infra")


class TestShardedCacheCoherence:
    def build(self):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=25, with_drams=False, plane=plane)
        return stack, plane

    def warm(self, stack):
        stack.issue_requests(16)
        stack.run(until=30.0)

    def test_shared_cache_is_one_cache(self):
        stack, plane = self.build()
        caches = plane.caches()
        assert len(caches) == 1
        assert all(s.decision_cache is caches[0] for s in plane.services)

    def test_supplied_empty_shared_cache_is_kept(self):
        # An empty DecisionCache is falsy (len() == 0); the plane must not
        # "or" it away and deploy its own cache instead.
        mine = DecisionCache(max_entries=64)
        plane = ShardedPdpPlane(shards=2, service_kwargs={"decision_cache": mine})
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=28, with_drams=False, plane=plane)
        assert plane.caches() == [mine]
        stack.issue_requests(6)
        stack.run(until=20.0)
        assert mine.hits + mine.misses > 0  # traffic flowed through *my* cache

    def test_publish_flushes_every_shard_cache(self):
        stack, plane = self.build()
        self.warm(stack)
        warmed = [cache for cache in plane.caches() if len(cache)]
        assert warmed  # the workload actually populated the plane's caches
        stack.pap.publish(deny_all_policy())
        for cache in plane.caches():
            assert len(cache) == 0
        assert all(cache.invalidations > 0 for cache in warmed)
        # Post-flush decisions follow the new policy on every shard.
        stack.issue_requests(8)
        stack.run(until=stack.sim.now + 30.0)
        assert all(not o.granted for o in stack.outcomes[-8:])


class TestPepTimeoutAndFailover:
    def setup_pep(self, shards, request_timeout=1.0, **fake_kwargs):
        sim = Simulator()
        network = Network(sim, SeededRng(31, "plane-tests"), ConstantLatency(0.001))
        fakes = [FakePdp(network, f"pdp-{i}@infra", **fake_kwargs)
                 for i in range(shards)]
        plane = ShardedPdpPlane.over(fakes)
        pep = PolicyEnforcementPoint(network, "pep@t1", "tenant-1", plane,
                                     request_timeout=request_timeout)
        return sim, network, fakes, plane, pep

    def test_response_cancels_timeout_event(self):
        sim, network, fakes, plane, pep = self.setup_pep(1)
        request = request_with()
        pep.submit(request)
        timeout_event = pep._pending[request.request_id].timeout_event
        sim.run(until=5.0)
        assert timeout_event.cancelled
        assert pep.timeouts == 0
        assert len(pep.enforced) == 1

    def test_late_response_after_timeout_is_not_double_enforced(self):
        sim, network, fakes, plane, pep = self.setup_pep(
            1, request_timeout=0.5, delay=2.0)
        outcomes = []
        pep.submit(request_with(), outcomes.append)
        sim.run(until=10.0)  # well past the straggler response
        assert pep.timeouts == 1
        assert len(outcomes) == 1 and len(pep.enforced) == 1
        assert outcomes[0].decision.status_code == "timeout"
        assert not outcomes[0].granted
        assert fakes[0].seen  # the shard did receive (and answer) the request

    def test_resubmitted_pending_id_supersedes_earlier_attempt(self):
        # Submitting the same request id while the first attempt is still
        # in flight must disarm the first timer — otherwise it fires
        # against the new pending entry and forces a premature failover.
        sim, network, fakes, plane, pep = self.setup_pep(2, request_timeout=1.0,
                                                         delay=0.1)
        request = request_with()
        outcomes = []
        pep.submit(request, outcomes.append)
        first_timer = pep._pending[request.request_id].timeout_event
        pep.submit(request, outcomes.append)
        assert first_timer.cancelled
        sim.run(until=10.0)
        assert pep.failovers == 0 and pep.timeouts == 0
        assert len(outcomes) == 1  # one enforcement; the duplicate is dropped
        sim, network, fakes, plane, pep = self.setup_pep(1, reply_count=3)
        outcomes = []
        pep.submit(request_with(), outcomes.append)
        sim.run(until=5.0)
        assert len(outcomes) == 1 and len(pep.enforced) == 1
        assert pep.timeouts == 0

    def test_failover_to_next_shard_in_ring_order(self):
        sim, network, fakes, plane, pep = self.setup_pep(2, request_timeout=1.0)
        request = request_with()
        order = plane.endpoints(request)
        by_address = {fake.address: fake for fake in fakes}
        by_address[order[0]].silent = True
        by_address[order[1]].decision = "Permit"
        outcomes = []
        pep.submit(request, outcomes.append)
        sim.run(until=10.0)
        assert pep.failovers == 1
        assert pep.timeouts == 0
        assert len(outcomes) == 1 and outcomes[0].granted
        assert by_address[order[0]].seen and by_address[order[1]].seen
        # The retry happened after the first shard's per-attempt window.
        assert outcomes[0].latency > 1.0 / 2

    def test_slow_primary_loses_to_failover_shard(self):
        sim, network, fakes, plane, pep = self.setup_pep(2, request_timeout=1.0)
        request = request_with()
        order = plane.endpoints(request)
        by_address = {fake.address: fake for fake in fakes}
        by_address[order[0]].delay = 0.7   # answers Deny after the 0.5s window
        by_address[order[0]].decision = "Deny"
        by_address[order[1]].decision = "Permit"
        outcomes = []
        pep.submit(request, outcomes.append)
        sim.run(until=10.0)
        # The failover shard's Permit wins; the straggling Deny is dropped.
        assert len(outcomes) == 1 and len(pep.enforced) == 1
        assert outcomes[0].granted
        assert pep.failovers == 1 and pep.timeouts == 0

    def test_routing_follows_the_forwarded_envelope(self):
        # A tampering interceptor rewrites the request before forwarding;
        # the shard must be chosen by the envelope it will receive (and
        # key its decision cache on), not the original.
        sim, network, fakes, plane, pep = self.setup_pep(4)
        original = request_with(role="clerk")
        forged = request_with(role="admin")
        forged.request_id = original.request_id
        pep.forward_interceptor = lambda request: forged
        pep.submit(original)
        sim.run(until=5.0)
        by_address = {fake.address: fake for fake in fakes}
        receiver = next(fake for fake in fakes if fake.seen)
        assert receiver.address == plane.endpoints(forged)[0]
        assert by_address[plane.endpoints(forged)[0]].seen[0].content == forged.content

    def test_all_shards_dead_times_out_deny(self):
        sim, network, fakes, plane, pep = self.setup_pep(
            3, request_timeout=1.5, silent=True)
        outcomes = []
        pep.submit(request_with(), outcomes.append)
        sim.run(until=10.0)
        assert pep.failovers == 2
        assert pep.timeouts == 1
        assert len(outcomes) == 1
        assert outcomes[0].decision.status_code == "timeout"
        assert not outcomes[0].granted
        assert all(fake.seen for fake in fakes)  # every shard was tried


class TestDecisionPlaneSurface:
    def test_describe_and_stats(self):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=26, with_drams=False, plane=plane)
        summary = plane.describe()
        assert summary["kind"] == "ShardedPdpPlane"
        assert summary["shards"] == 2
        stack.issue_requests(6)
        stack.run(until=20.0)
        stats = plane.stats()
        assert sum(stats["requests_served"].values()) == 6
        assert len(stats["caches"]) == 1

    def test_double_deploy_rejected(self):
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=27, with_drams=False)
        with pytest.raises(ValidationError):
            stack.plane.deploy(stack.federation, stack.policy_plane)
