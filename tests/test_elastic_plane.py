"""Elastic decision plane: runtime membership, drain semantics, shard
warm-up, probe lifecycle, queue-aware routing."""

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
from repro.xacml.parser import policy_to_dict
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


def request_with(role="doctor", origin="tenant-1", extra=None):
    content = {
        "subject": {"role": [role]},
        "action": {"action-id": ["read"]},
        "environment": {"origin-tenant": [origin]},
    }
    if extra:
        content.update(extra)
    return AccessRequest(content=content, origin_tenant=origin)


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
        plane = ShardedPdpPlane(shards=2, cache_policy="shared")
        build_stack(plane)
        added = plane.add_shard()
        assert added.decision_cache is plane.services[0].decision_cache

    def test_add_shard_partitioned_gets_own_cache(self):
        plane = ShardedPdpPlane(shards=2, cache_policy="partitioned")
        build_stack(plane)
        added = plane.add_shard()
        caches = plane.caches()
        assert len(caches) == 3
        assert added.decision_cache in caches

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

    def test_partitioned_cache_entries_rehome_to_survivors(self):
        plane = ShardedPdpPlane(shards=3, cache_policy="partitioned")
        stack = build_stack(plane)
        stack.issue_requests(24)
        stack.run(until=30.0)
        victim = plane.services[-1]
        victim_entries = victim.decision_cache.export_entries()
        assert victim_entries  # the workload warmed the victim's cache
        survivor_caches = [s.decision_cache for s in plane.services[:-1]]
        plane.drain_shard(victim.address)
        migrated_keys = set()
        for cache in survivor_caches:
            migrated_keys.update(key for key, _, _ in cache.export_entries())
        for key, _, _ in victim_entries:
            assert key in migrated_keys
        stack.run(until=stack.sim.now + 10.0)

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


class TestShardWarmup:
    def _warmed_stack(self):
        plane = ShardedPdpPlane(shards=3, cache_policy="partitioned")
        stack = build_stack(plane)
        stack.issue_requests(40)
        stack.run(until=30.0)
        return plane, stack

    def test_preseeded_entries_bit_identical_to_donors(self):
        plane, stack = self._warmed_stack()
        donors = {
            (key, fingerprint): response
            for service in plane.services
            for key, fingerprint, response in service.decision_cache.export_entries()
        }
        assert donors
        added = plane.add_shard()
        expected = {
            keyed: response
            for keyed, response in donors.items()
            if plane.services[plane._shard_index_for_point(plane._key_point(keyed[0]))]
            is added
        }
        assert expected  # the new shard claimed some warmed key range
        seeded = {
            (key, fingerprint): response
            for key, fingerprint, response in added.decision_cache.export_entries()
        }
        assert seeded == expected
        assert plane.warmed_entries == len(expected)

    def test_warmed_shard_serves_without_recomputing(self):
        plane, stack = self._warmed_stack()
        added = plane.add_shard()
        hits_before = added.decision_cache.stats()["hits"]
        assert len(added.decision_cache) > 0
        stack.issue_requests(40)
        stack.run(until=stack.sim.now + 30.0)
        assert added.requests_served > 0
        assert added.decision_cache.stats()["hits"] > hits_before

    def test_warm_entries_flush_coherently_on_publish(self):
        plane, stack = self._warmed_stack()
        added = plane.add_shard()
        assert len(added.decision_cache) > 0
        stack.publish_policy(stack.scenario.policy_document)
        stack.run(until=stack.sim.now + 5.0)
        assert len(added.decision_cache) == 0  # seeded entries flushed too

    def test_shared_cache_needs_no_warmup(self):
        plane = ShardedPdpPlane(shards=2, cache_policy="shared")
        stack = build_stack(plane)
        stack.issue_requests(20)
        stack.run(until=20.0)
        added = plane.add_shard()
        assert added.decision_cache is plane.services[0].decision_cache
        assert plane.warmed_entries == 0


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


class TestQueueAwareRouting:
    def make_pool(self, network, count=2, serialize=True):
        prp = PolicyRetrievalPoint()
        PolicyAdministrationPoint(prp, "admin").publish(doctors_policy())
        services = [
            PdpService(
                network,
                f"pdp-{i}@infra",
                prp,
                serialize_evaluations=serialize,
            )
            for i in range(count)
        ]
        return prp, services

    def test_prefers_idle_shard_over_busy_one(self, network):
        prp, services = self.make_pool(network)
        plane = ShardedPdpPlane.over(services, prp=prp, queue_aware=True)
        request = request_with()
        ring_order = ShardedPdpPlane.over(services, prp=prp).endpoints(request)
        busy = next(s for s in services if s.address == ring_order[0])
        idle = next(s for s in services if s.address == ring_order[1])
        busy._busy_until = busy.sim.now + 5.0  # deep backlog on the primary
        assert plane.endpoints(request) == (idle.address, busy.address)

    def test_idle_pool_keeps_ring_order(self, network):
        # With no dispatch inside the routing horizon and every cursor at
        # zero the pool is genuinely idle, and a queue-aware plane must
        # route exactly like a queue-blind one.
        prp, services = self.make_pool(network, count=4)
        queue_blind = ShardedPdpPlane.over(services, prp=prp)
        queue_aware = ShardedPdpPlane.over(services, prp=prp, queue_aware=True)
        for role in ("doctor", "nurse", "clerk", "auditor"):
            request = request_with(role=role)
            assert queue_aware.endpoints(request) == queue_blind.endpoints(request)

    def test_burst_spreads_via_inflight_projection(self, network):
        # Same-instant dispatches must NOT herd onto one shard: each real
        # dispatch is projected onto its target until it becomes visible
        # in the shard's busy cursor, so a burst round-robins the pool.
        prp, services = self.make_pool(network, count=4)
        plane = ShardedPdpPlane.over(services, prp=prp, queue_aware=True)
        request = request_with()
        primaries = []
        for _ in range(8):
            primary = plane.endpoints(request)[0]
            plane.note_dispatch(primary)  # what the PEP does per send
            primaries.append(primary)
        assert len(set(primaries)) == 4  # every shard drafted into the burst

    def test_inspection_queries_never_charge_a_shard(self, network):
        # endpoints() is also called for failover re-planning and pure
        # inspection; only note_dispatch (a real send) may feed the
        # in-flight projection, or phantom routes would inflate shards
        # the PEP never actually retried.
        prp, services = self.make_pool(network, count=4)
        plane = ShardedPdpPlane.over(services, prp=prp, queue_aware=True)
        request = request_with()
        first = plane.endpoints(request)
        for _ in range(8):
            assert plane.endpoints(request) == first
        assert not plane._recent_routes

    def test_threshold_hysteresis_preserves_affinity(self, network):
        prp, services = self.make_pool(network)
        plane = ShardedPdpPlane.over(services, prp=prp, queue_aware=True)
        plane.QUEUE_THRESHOLD = 1.0  # the shipped constant is 0: any lead re-sorts
        request = request_with()
        ring_order = plane.endpoints(request)
        primary = next(s for s in services if s.address == ring_order[0])
        primary._busy_until = primary.sim.now + 0.5  # below the threshold
        assert plane.endpoints(request) == ring_order

    def test_unserialized_shards_report_idle(self, network):
        prp, services = self.make_pool(network, serialize=False)
        services[0]._busy_until = services[0].sim.now + 9.0
        assert services[0].busy_seconds() == 0.0

    def test_busy_cursor_tracks_backlog(self, network):
        prp, services = self.make_pool(network, count=1)
        service = services[0]
        assert service.busy_seconds() == 0.0
        for _ in range(3):
            service.receive(
                Message("pep@t1", service.address, "ac_request", request_with().to_dict())
            )
        assert service.busy_seconds() > 0.0
        assert service.pending_evaluations == 3
        service.sim.run(until=10.0)
        assert service.pending_evaluations == 0
        assert service.busy_seconds() == 0.0


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
        assert "0.30ms" in lan.describe()


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
