"""Elastic decision plane: runtime membership, drain semantics, shard
warm-up, probe lifecycle, serialized evaluator capacity."""

import pytest

from repro.accesscontrol.messages import AccessRequest
from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.common.errors import ValidationError
from repro.harness import MonitoredFederation
from repro.simnet.network import Message
from repro.workload.scenarios import elastic_scale_scenario, healthcare_scenario
from repro.xacml.policy import Effect, Policy, Rule, Target
from tests.conftest import fast_drams_config


def doctors_policy() -> Policy:
    return Policy(
        policy_id="p",
        rule_combining="first-applicable",
        rules=[
            Rule(
                "allow-doctors",
                Effect.PERMIT,
                target=Target.single("string-equal", "doctor", "subject", "role"),
            ),
            Rule("deny", Effect.DENY),
        ],
    )


def request_with(role="doctor", origin="tenant-1", extra=None, request_id="req-1"):
    content = {
        "subject": {"role": [role]},
        "action": {"action-id": ["read"]},
        "environment": {"origin-tenant": [origin]},
    }
    if extra:
        content.update(extra)
    return AccessRequest(content=content, origin_tenant=origin, request_id=request_id)


def build_stack(plane, scenario=None, with_drams=False, seed=31, **kwargs):
    stack = MonitoredFederation.build(
        scenario or healthcare_scenario(),
        clouds=2,
        seed=seed,
        with_drams=with_drams,
        drams_config=fast_drams_config() if with_drams else None,
        plane=plane,
        **kwargs,
    )
    if with_drams:
        stack.start()
    return stack


class TestAddShard:
    def test_add_shard_joins_ring_and_serves(self):
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane)
        added = plane.add_shard()
        assert added.address == "pdp-2@infrastructure"
        assert [s.address for s in plane.services] == [
            "pdp-0@infrastructure",
            "pdp-1@infrastructure",
            "pdp-2@infrastructure",
        ]
        assert plane.shards == 3
        # The new shard owns part of the key space.
        primaries = {plane.endpoints(request_with(role=f"role-{i}"))[0] for i in range(64)}
        assert added.address in primaries
        stack.issue_requests(30)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 30
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0
        assert sum(s.requests_served for s in plane.services) == 30

    def test_add_shard_shares_the_shared_cache(self):
        plane = ShardedPdpPlane(shards=2)
        build_stack(plane)
        added = plane.add_shard()
        assert added.decision_cache is plane.services[0].decision_cache

    def test_add_shard_requires_deployment(self):
        with pytest.raises(ValidationError, match="deployed"):
            ShardedPdpPlane(shards=2).add_shard()

    def test_over_plane_cannot_add(self, network):
        pdp = PdpService(network, "pdp-0@infra", PolicyRetrievalPoint())
        plane = ShardedPdpPlane.over([pdp])
        with pytest.raises(ValidationError):
            plane.add_shard()

    def test_added_addresses_never_reuse_indices(self):
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane)
        plane.add_shard()
        plane.drain_shard("pdp-2@infrastructure")
        stack.run(until=stack.sim.now + 10.0)
        again = plane.add_shard()
        assert again.address == "pdp-3@infrastructure"  # never resurrect pdp-2


class TestDrainShard:
    def test_drained_shard_leaves_the_ring_immediately(self):
        plane = ShardedPdpPlane(shards=3)
        stack = build_stack(plane)
        drained = plane.drain_shard()
        assert drained.address == "pdp-2@infrastructure"
        assert plane.shards == 2
        assert plane.draining() == [drained]
        for i in range(32):
            assert drained.address not in plane.endpoints(request_with(role=f"r{i}"))
        stack.issue_requests(20)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 20
        assert drained.requests_served == 0  # nothing routed after drain

    def test_drain_finishes_in_flight_work_then_detaches(self):
        plane = ShardedPdpPlane(
            shards=2,
            drain_grace=0.5,
            service_kwargs={"base_processing_delay": 0.2, "per_rule_delay": 0.0},
        )
        stack = build_stack(plane)
        victim = plane.services[1]
        stack.issue_requests(12)
        stack.run(until=0.6)  # requests are in flight / evaluating
        plane.drain_shard(victim.address)
        removed = []
        plane.on_membership(lambda event, service: removed.append((event, service)))
        stack.run(until=30.0)
        assert ("removed", victim) in removed
        assert victim.pending_evaluations == 0
        assert len(stack.outcomes) == 12
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0
        # Quiescent shard left the network fabric.
        assert victim.address not in stack.federation.network.hosts()

    def test_cannot_drain_last_shard(self):
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane)
        plane.drain_shard()
        with pytest.raises(ValidationError, match="last routable"):
            plane.drain_shard()
        stack.run(until=10.0)

    def test_drain_unknown_address_rejected(self):
        plane = ShardedPdpPlane(shards=2)
        build_stack(plane)
        with pytest.raises(ValidationError, match="no routable shard"):
            plane.drain_shard("pdp-9@infrastructure")

    def test_pep_replans_failover_around_drained_shard(self):
        # A request dispatched to a shard that drains (and goes quiescent)
        # before answering must fail over to a *surviving* shard on the
        # re-planned route, not be retried against the removed one.  The
        # re-route counts as membership churn, not a failover: the shard
        # was drained out from under the attempt, it did not fault.
        plane = ShardedPdpPlane(shards=2, drain_grace=0.0)
        stack = build_stack(plane)
        pep = next(iter(stack.peps.values()))
        request = request_with()
        order = plane.endpoints(request)
        victim = next(s for s in plane.services if s.address == order[0])
        # Silence the victim: it receives but never evaluates.
        victim.receive = lambda message: None
        outcomes = []
        pep.submit(request, outcomes.append)
        stack.run(until=0.2)
        plane.drain_shard(victim.address)
        stack.run(until=60.0)
        assert len(outcomes) == 1
        assert outcomes[0].decision.status_code != "timeout"
        assert pep.failovers == 0
        assert pep.churn_reroutes == 1

    def test_unresponsive_listed_shard_still_counts_as_failover(self):
        # The counterpart: a shard that stays in the membership but never
        # answers is a fault — the retry must keep incrementing
        # ``failovers``, untouched by the churn-attribution fix.
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane)
        pep = next(iter(stack.peps.values()))
        request = request_with()
        order = plane.endpoints(request)
        victim = next(s for s in plane.services if s.address == order[0])
        victim.receive = lambda message: None
        outcomes = []
        pep.submit(request, outcomes.append)
        stack.run(until=60.0)
        assert len(outcomes) == 1
        assert outcomes[0].decision.status_code != "timeout"
        assert pep.failovers == 1
        assert pep.churn_reroutes == 0


class TestProbeLifecycle:
    def test_added_shard_is_probed_before_first_request(self):
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane, with_drams=True, seed=32)
        added = stack.add_pdp_shard()
        key = f"pdp:{added.address}"
        assert key in stack.drams.probes
        probe = stack.drams.probes[key]
        assert probe.component_host is added
        assert added in stack.drams.pdp_services
        stack.issue_requests(20)
        stack.run(until=40.0)
        assert len(stack.outcomes) == 20
        assert added.requests_served > 0
        # pdp-in + pdp-out per decision: complete coverage, no alert gap.
        assert probe.observations == 2 * added.requests_served
        assert stack.drams.alerts.count() == 0
        assert stack.drams.analyser.checked == 20
        assert stack.drams.analyser.pending_correlations == 0

    def test_default_stack_grows_and_drains(self):
        # No ``plane=`` at all: the paper's single evaluator is a pool of
        # one, so it grows past its historical name and drains back to it.
        stack = build_stack(None, with_drams=True, seed=36)
        assert [s.address for s in stack.plane.services] == ["pdp@infrastructure"]
        added = stack.add_pdp_shard()
        assert added.address == "pdp-1@infrastructure"
        probe = stack.drams.probes[f"pdp:{added.address}"]
        assert probe.component_host is added  # probed before its first request
        stack.issue_requests(20)
        stack.run(until=40.0)
        assert added.requests_served > 0
        assert probe.observations == 2 * added.requests_served
        assert stack.drain_pdp_shard() is added
        stack.run(until=stack.sim.now + 10.0)
        assert [s.address for s in stack.plane.services] == ["pdp@infrastructure"]
        assert probe.detached
        assert len(stack.outcomes) == 20
        assert stack.drams.alerts.count() == 0
        assert stack.drams.analyser.checked == 20

    def test_added_shard_is_never_double_probed(self):
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane, with_drams=True, seed=33)
        added = stack.add_pdp_shard()
        assert len(added.on_decision) == 1
        assert len(added.on_request_received) == 1
        # A duplicate membership announcement must not attach twice.
        plane._notify_membership("added", added)
        assert len(added.on_decision) == 1
        assert len(added.on_request_received) == 1

    def test_drained_shard_keeps_probe_until_quiescent(self):
        plane = ShardedPdpPlane(shards=2, drain_grace=0.5)
        stack = build_stack(plane, with_drams=True, seed=34)
        stack.issue_requests(16)
        stack.run(until=1.0)
        victim = plane.services[1]
        probe = next(p for p in stack.drams.probes.values() if p.component_host is victim)
        stack.drain_pdp_shard(victim.address)
        assert not probe.detached  # still covering in-flight work
        stack.run(until=60.0)
        assert probe.detached
        assert victim.on_decision == []  # hooks actually removed
        assert victim.on_request_received == []
        # Every decision the drained shard made was observed and checked.
        assert len(stack.outcomes) == 16
        assert stack.drams.alerts.count() == 0
        assert stack.drams.analyser.checked == 16
        assert stack.drams.analyser.pending_correlations == 0

    def test_removed_shard_leaves_drams_pdp_services(self):
        plane = ShardedPdpPlane(shards=2, drain_grace=0.2)
        stack = build_stack(plane, with_drams=True, seed=38)
        added = stack.add_pdp_shard()
        assert added in stack.drams.pdp_services
        primary = stack.drams.pdp_service
        stack.drain_pdp_shard(added.address)
        stack.run(until=30.0)
        # Quiescent + off the network: shard-indexed experiments must not
        # be able to target it through the DRAMS view any more.
        assert added not in stack.drams.pdp_services
        assert stack.drams.pdp_service is primary  # primary stays pinned
        assert stack.drams.pdp_services == plane.services

    def test_full_add_drain_cycle_under_traffic_no_alert_gap(self):
        plane = ShardedPdpPlane(shards=2, drain_grace=0.5)
        stack = build_stack(plane, with_drams=True, seed=35)
        stack.issue_requests(24)
        stack.add_pdp_shard(at=0.8)
        stack.drain_pdp_shard("pdp-0@infrastructure", at=2.0)
        stack.run(until=90.0)
        assert len(stack.outcomes) == 24
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0
        assert stack.drams.alerts.count() == 0
        assert stack.drams.analyser.checked == 24
        assert stack.drams.analyser.pending_correlations == 0
        assert not plane.draining()  # the drained shard quiesced and left


class TestSerializedCapacity:
    """The single-threaded evaluator model E13's static and elastic arms
    measure against."""

    def serve_burst(self, network, serialize=True, count=3):
        prp = PolicyRetrievalPoint()
        PolicyAdministrationPoint(prp, "admin").publish(doctors_policy())
        service = PdpService(
            network,
            "pdp-0@infra",
            prp,
            per_rule_delay=0.0,
            serialize_evaluations=serialize,
        )
        answered = []
        service.on_decision.append(lambda request, decision: answered.append(decision.decided_at))
        for index in range(count):
            payload = request_with(request_id=f"burst-{index}").to_dict()
            service.receive(Message("pep@t1", service.address, "ac_request", payload))
        return service, answered

    def test_burst_answered_one_delay_apart(self, network):
        service, answered = self.serve_burst(network)
        assert service.pending_evaluations == 3
        service.sim.run(until=10.0)
        assert service.pending_evaluations == 0
        step = service.base_processing_delay
        assert answered == pytest.approx([step, 2 * step, 3 * step])

    def test_unserialized_shard_answers_burst_at_once(self, network):
        service, answered = self.serve_burst(network, serialize=False)
        service.sim.run(until=10.0)
        assert service.pending_evaluations == 0
        assert answered == pytest.approx([service.base_processing_delay] * 3)

    def test_crash_and_restart_reset_the_queue(self, network):
        service, answered = self.serve_burst(network)
        service.crash()
        assert service.pending_evaluations == 0
        assert service.evaluations_lost == 3
        service.restart()
        service.receive(Message("pep@t1", service.address, "ac_request", request_with().to_dict()))
        service.sim.run(until=10.0)
        # Only the post-restart request is answered, one delay after it
        # arrived rather than behind the three lost evaluations.
        assert answered == pytest.approx([service.base_processing_delay])


class TestLocalityRouting:
    """Link locality: hosts of one tenant ride the LAN, however they join."""

    def test_added_shard_gets_wired_links_without_refinalize(self):
        # add_shard wires only the new hosts (O(hosts), not a full
        # re-finalize) yet must produce the same overrides finalize
        # would: LAN to co-tenant infra hosts.
        plane = ShardedPdpPlane(shards=2)
        stack = build_stack(plane)
        added = plane.add_shard()
        network = stack.federation.network
        lan = network._latency_for(added.address, "pdp-0@infrastructure")
        assert lan is not network.default_latency
        assert lan.median == 0.0003


class TestElasticScaleScenario:
    def test_scenario_registered_and_complete(self):
        scenario = elastic_scale_scenario()
        assert scenario.name == "elastic-scale"
        assert scenario.workload.arrival_rate > 2000.0
        from repro.workload.scenarios import all_scenarios

        assert [s.name for s in all_scenarios()].count("elastic-scale") == 1

    def test_single_plane_still_works_for_small_runs(self):
        stack = build_stack(SinglePdpPlane(), scenario=elastic_scale_scenario(), seed=37)
        stack.issue_requests(15)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 15
