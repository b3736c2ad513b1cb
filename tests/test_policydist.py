"""Policy distribution plane: replicas, propagation, convergence, monitoring."""

import copy

import pytest
from hypothesis import given, settings

from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.analysis.properties import change_impact
from repro.common.errors import ValidationError
from repro.drams.alerts import AlertType
from repro.federation.federation import Federation, FederationConfig
from repro.harness import MonitoredFederation
from repro.policydist import PrpReplica, ReplicatedPrpPlane, SingleStorePlane
from repro.threats import Adversary, StalePolicyReplayAttack, TamperedPrpReplicaAttack
from repro.workload.scenarios import healthcare_scenario, policy_churn_scenario
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule
from tests.conftest import fast_drams_config
from tests.strategies import delivery_orders


def doc(tag="base"):
    return policy_to_dict(
        Policy(
            policy_id=f"p-{tag}",
            rule_combining="first-applicable",
            rules=[Rule(f"deny-{tag}", Effect.DENY)],
        )
    )


def records_for(*documents):
    """Version records 1..n over ``documents`` (the origin's wire form)."""
    store = PolicyRetrievalPoint()
    for index, document in enumerate(documents):
        store.publish(document, publisher="pap@test", published_at=float(index))
    return [version.to_record() for version in store.history()]


# -- single store -----------------------------------------------------------------


class TestSingleStorePlane:
    def test_every_consumer_shares_one_store(self):
        plane = SingleStorePlane()
        first = plane.retrieval_point_for("pdp-0")
        second = plane.retrieval_point_for("analyser")
        assert first is second is plane.authority
        assert set(plane.replicas()) == {"pdp-0", "analyser"}
        assert plane.converged()

    def test_decision_plane_rejects_bare_store(self):
        federation = Federation(FederationConfig(name="bare-store", seed=6))
        store = PolicyRetrievalPoint()
        for plane in (SinglePdpPlane(), ShardedPdpPlane(shards=2)):
            with pytest.raises(ValidationError, match="expected a PolicyDistributionPlane"):
                plane.deploy(federation, store)
            assert plane.services == []
        # The way in for a store already in hand: wrap it.
        plane = SinglePdpPlane()
        plane.deploy(federation, SingleStorePlane(store=store))
        assert plane.services[0].prp is store


# -- reentrancy guard --------------------------------------------------------------


class TestReentrantPublishGuard:
    def test_listener_publishing_reentrantly_is_rejected(self):
        prp = PolicyRetrievalPoint()
        failures = []

        def republish(version):
            try:
                prp.publish(doc("reentrant"), publisher="listener")
            except ValidationError as exc:
                failures.append(exc)

        prp.on_publish(republish)
        prp.publish(doc(), publisher="pap@test")
        assert len(failures) == 1
        assert "reentrant" in str(failures[0])
        # Version history stayed clean and the store still works.
        assert prp.version_count() == 1
        prp.publish(doc("later"), publisher="pap@test")
        assert prp.version_count() == 2


# -- replica unit behaviour --------------------------------------------------------


class TestPrpReplica:
    def test_local_publish_is_rejected(self):
        replica = PrpReplica(origin_id="prp@infra", consumer="pdp-0")
        with pytest.raises(ValidationError):
            replica.publish(doc(), publisher="local")

    def test_out_of_order_records_are_staged_then_applied_in_order(self):
        records = records_for(doc("a"), doc("b"), doc("c"))
        replica = PrpReplica(origin_id="prp@infra")
        observed = []
        replica.on_publish(lambda version: observed.append(version.version))
        assert not replica.apply_record(records[2])  # future: staged
        assert replica.version_count() == 0
        assert not replica.apply_record(records[1])  # still a gap
        assert replica.apply_record(records[0])  # gap closes, drains all
        assert replica.version_count() == 3
        assert observed == [1, 2, 3]

    def test_duplicates_are_ignored(self):
        records = records_for(doc("a"))
        replica = PrpReplica(origin_id="prp@infra")
        assert replica.apply_record(records[0])
        assert not replica.apply_record(records[0])
        assert replica.records_duplicate == 1
        assert replica.version_count() == 1

    def test_tampered_record_is_rejected(self):
        records = records_for(doc("a"))
        forged = copy.deepcopy(records[0])
        forged["document"]["description"] = "altered in flight"
        replica = PrpReplica(origin_id="prp@infra")
        with pytest.raises(ValidationError):
            replica.apply_record(forged)
        assert replica.version_count() == 0

    def test_frozen_replica_drops_deliveries(self):
        records = records_for(doc("a"))
        replica = PrpReplica(origin_id="prp@infra")
        replica.frozen = True
        assert not replica.apply_record(records[0])
        assert replica.version_count() == 0
        replica.frozen = False
        assert replica.apply_record(records[0])

    def test_version_vector(self):
        records = records_for(doc("a"), doc("b"))
        replica = PrpReplica(origin_id="prp@infra")
        assert replica.version_vector() == {"prp@infra": 0}
        replica.apply_record(records[0])
        replica.apply_record(records[1])
        assert replica.version_vector() == {"prp@infra": 2}

    @settings(max_examples=25, deadline=None)
    @given(delivery_orders(5))
    def test_any_delivery_order_converges_to_the_same_head(self, order):
        """Anti-entropy hypothesis: delivery order never changes the head."""
        records = records_for(*(doc(f"gen-{i}") for i in range(5)))
        replica = PrpReplica(origin_id="prp@infra")
        for index in order:
            replica.apply_record(records[index])
        assert replica.version_count() == 5
        assert replica.current().fingerprint == records[-1]["fingerprint"]
        assert [v.version for v in replica.history()] == [1, 2, 3, 4, 5]


# -- replicated plane over a federation --------------------------------------------


def deployed_plane(**kwargs):
    federation = Federation(FederationConfig(name="policydist-test", seed=5))
    plane = ReplicatedPrpPlane(**kwargs).deploy(federation)
    return federation, plane


class TestReplicatedPrpPlane:
    def test_requires_deploy_before_use(self):
        plane = ReplicatedPrpPlane()
        with pytest.raises(ValidationError):
            plane.authority
        with pytest.raises(ValidationError):
            plane.retrieval_point_for("pdp")

    def test_deploy_is_idempotent_per_federation(self):
        federation, plane = deployed_plane()
        assert plane.deploy(federation) is plane
        with pytest.raises(ValidationError):
            plane.deploy(Federation(FederationConfig(name="other", seed=6)))

    def test_replicas_bootstrap_published_history(self):
        federation, plane = deployed_plane(propagation_delay=0.5)
        plane.authority.publish(doc("a"), publisher="pap@test")
        plane.authority.publish(doc("b"), publisher="pap@test")
        replica = plane.retrieval_point_for("pdp-0")
        # Synchronous provisioning snapshot: no simulated time has passed.
        assert replica.version_count() == 2
        assert replica.current().fingerprint == plane.authority.current().fingerprint

    def test_publish_propagates_after_the_configured_delay(self):
        federation, plane = deployed_plane(
            propagation_delay=0.5, propagation_jitter=0.0, anti_entropy_interval=0.0
        )
        replica = plane.retrieval_point_for("pdp-0")
        plane.authority.publish(doc("a"), publisher="pap@test")
        assert replica.version_count() == 0
        federation.sim.run(until=0.4)
        assert replica.version_count() == 0  # still in flight
        federation.sim.run(until=1.0)
        assert replica.version_count() == 1
        assert plane.converged()

    def test_anti_entropy_recovers_dropped_publishes(self):
        federation, plane = deployed_plane(propagation_delay=0.05, anti_entropy_interval=0.5)
        replica = plane.retrieval_point_for("pdp-0")
        (host,) = plane.replica_addresses()
        # Every direct fan-out is lost; the link heals before the first pull.
        fault = federation.network.set_link_fault(plane.origin_address, host, loss=1.0)
        plane.authority.publish(doc("a"), publisher="pap@test")
        plane.authority.publish(doc("b"), publisher="pap@test")
        federation.sim.run(until=0.25)
        assert fault.dropped == 2
        federation.network.clear_link_fault(plane.origin_address, host)
        federation.sim.run(until=2.0)
        assert replica.version_count() == 2
        assert plane.converged()
        assert plane.stats()["pulls_served"] >= 1

    def test_consumers_get_distinct_replicas(self):
        federation, plane = deployed_plane()
        first = plane.retrieval_point_for("pdp-0")
        second = plane.retrieval_point_for("pdp-1")
        assert first is not second
        assert plane.retrieval_point_for("pdp-0") is first  # stable handle
        assert set(plane.replicas()) == {"pdp-0", "pdp-1"}


# -- PAP change impact through a replicated plane ----------------------------------


class TestPapThroughReplicatedPlane:
    def test_impact_uses_the_publishers_current_version_not_a_stale_replica(self):
        scenario = policy_churn_scenario()
        generations = (scenario.policy_document, *scenario.policy_variants)
        federation = Federation(FederationConfig(name="pap-impact", seed=7))
        plane = ReplicatedPrpPlane(propagation_delay=5.0).deploy(federation)
        pap = PolicyAdministrationPoint(plane.authority, administrator="pap@infra")
        pap.publish(generations[0], published_at=0.0)
        replica = plane.retrieval_point_for("pdp-0")  # bootstraps generation 0
        pap.publish(generations[1], published_at=0.0)
        assert replica.version_count() == 1  # stale: publish still in flight

        # Generations 0 and 2 decide identically (contractor reads on in
        # both); generation 1 has them off.  An impact report for the
        # gen-1 → gen-2 publish must therefore show differences — if it
        # were computed against the stale replica (still gen 0), it would
        # report none.
        report = pap.publish(
            generations[2], published_at=0.0,
            impact_domain=scenario.domain,
        ) and pap.last_impact_report
        assert report is not None
        assert not report.holds and report.counterexamples
        stale_baseline = change_impact(generations[0], generations[2], scenario.domain)
        assert stale_baseline.holds  # the stale comparison would be silent


# -- stamped decisions and end-to-end monitoring -----------------------------------


class TestVersionStampedDecisions:
    def test_decisions_carry_the_policy_stamp(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), seed=21, with_drams=False
        )
        stack.issue_requests(3)
        stack.run(until=10.0)
        assert len(stack.outcomes) == 3
        head = stack.prp.current()
        for outcome in stack.outcomes:
            assert outcome.decision.policy_version == head.version
            assert outcome.decision.policy_fingerprint == head.fingerprint

    def test_mid_run_publish_restamps_decisions(self):
        scenario = policy_churn_scenario()
        stack = MonitoredFederation.build(scenario, seed=22, with_drams=False)
        stack.issue_requests(40)
        stack.publish_policy(scenario.policy_variants[0], at=1.2)
        stack.run(until=10.0)
        versions = {o.decision.policy_version for o in stack.outcomes}
        assert versions == {1, 2}


class TestChurnMonitoring:
    def test_honest_churn_raises_no_violation_alerts(self):
        scenario = policy_churn_scenario()
        stack = MonitoredFederation.build(
            scenario,
            seed=23,
            drams_config=fast_drams_config(),
            policy_plane=ReplicatedPrpPlane(
                propagation_delay=0.3, propagation_jitter=0.05
            ),
            plane=ShardedPdpPlane(shards=2),
        )
        stack.start()
        stack.issue_requests(30)
        for index, document in enumerate(scenario.policy_variants[:2]):
            stack.publish_policy(document, at=0.8 + 0.6 * index)
        stack.run(until=40.0)
        assert len(stack.outcomes) == 30
        alerts = stack.drams.alerts
        assert alerts.count(AlertType.POLICY_VIOLATION) == 0
        assert alerts.count(AlertType.INCORRECT_DECISION) == 0
        assert stack.policy_plane.converged()
        assert stack.drams.analyser.checked == 30

    def test_tampered_replica_is_detected(self):
        rogue = policy_to_dict(
            Policy(
                policy_id="rogue",
                rule_combining="permit-overrides",
                rules=[Rule("allow-all", Effect.PERMIT)],
            )
        )
        stack = MonitoredFederation.build(
            policy_churn_scenario(),
            seed=24,
            drams_config=fast_drams_config(),
            policy_plane=ReplicatedPrpPlane(propagation_delay=0.2),
        )
        stack.start()
        adversary = Adversary(stack.drams)
        adversary.launch(TamperedPrpReplicaAttack(rogue), at=0.6)
        stack.issue_requests(15)
        stack.run(until=45.0)
        record = adversary.records()[0]
        assert record.detected
        assert AlertType.POLICY_VIOLATION in {
            a.alert_type for a in record.matched_alerts
        }
        assert adversary.false_positives() == []

    def test_stale_policy_replay_is_detected_once_skew_exceeds_bound(self):
        scenario = policy_churn_scenario()
        stack = MonitoredFederation.build(
            scenario,
            seed=25,
            drams_config=fast_drams_config(),
            policy_plane=ReplicatedPrpPlane(
                propagation_delay=0.2, propagation_jitter=0.05
            ),
        )
        stack.start()
        adversary = Adversary(stack.drams)
        adversary.launch(StalePolicyReplayAttack(), at=0.6)
        stack.issue_requests(60)
        for index, document in enumerate(scenario.policy_variants):
            stack.publish_policy(document, at=0.8 + 0.4 * index)
        stack.run(until=60.0)
        record = adversary.records()[0]
        assert record.detected
        assert adversary.false_positives() == []
        # Skew within the bound was classified as churn, not violation.
        assert stack.drams.analyser.churn_observed > 0

    def test_replica_attacks_refuse_a_shared_store(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), seed=26, drams_config=fast_drams_config()
        )
        stack.start()
        with pytest.raises(ValidationError):
            StalePolicyReplayAttack().inject(stack.drams)


class TestChurnClaimAudit:
    """The churn downgrade is a claim the Analyser must verify, not trust."""

    def churn_stack(self, seed):
        stack = MonitoredFederation.build(
            policy_churn_scenario(), seed=seed, drams_config=fast_drams_config()
        )
        stack.start()
        return stack

    def contractor_read(self, pep):
        pep.request_access(
            subject={"role": "contractor"},
            resource={
                "type": "case-file",
                "resource-id": "case-77",
                "owner-tenant": pep.tenant_name,
            },
            action={"action-id": "read"},
        )

    def test_forged_stamp_with_unknown_fingerprint_is_refuted(self):
        from repro.accesscontrol.messages import AccessDecision

        stack = self.churn_stack(seed=31)
        pep = stack.peps["tenant-1"]

        def forge(request, decision):
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = "Permit"
            forged.policy_version = decision.policy_version + 1
            forged.policy_fingerprint = "f" * 64  # no publisher made this
            return forged

        pep.enforcement_interceptor = forge
        self.contractor_read(pep)
        stack.run(until=40.0)
        alerts = stack.drams.alerts
        # Downgraded to churn by the declared-version mismatch, then the
        # audit refuted the claim: the fingerprint is outside the history.
        assert alerts.count(AlertType.POLICY_CHURN) == 1
        assert alerts.count(AlertType.POLICY_VIOLATION) == 1
        reasons = {a.details.get("reason")
                   for a in alerts.of_type(AlertType.POLICY_VIOLATION)}
        assert reasons == {"churn-claims-unknown-fingerprint"}

    def test_forged_stamp_naming_a_real_version_is_refuted_by_its_oracle(self):
        from repro.accesscontrol.messages import AccessDecision

        scenario = policy_churn_scenario()
        stack = self.churn_stack(seed=32)
        pep = stack.peps["tenant-1"]
        v1 = stack.prp.current()
        stack.publish_policy(scenario.policy_variants[0], at=1.0)

        def forge(request, decision):
            # Claim version 1 (which permits contractor reads) while
            # enforcing Deny: a real version, but not its decision.
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = "Deny"
            forged.policy_version = v1.version
            forged.policy_fingerprint = v1.fingerprint
            return forged

        def late_request():
            pep.enforcement_interceptor = forge
            self.contractor_read(pep)

        stack.sim.schedule_at(2.0, late_request)
        stack.run(until=40.0)
        alerts = stack.drams.alerts
        assert alerts.count(AlertType.POLICY_CHURN) == 1
        violations = alerts.of_type(AlertType.POLICY_VIOLATION)
        assert [a.details.get("reason") for a in violations] == [
            "churn-claim-refuted"
        ]
        assert stack.drams.analyser.churn_audits >= 0

    def test_honest_failover_race_claim_survives_the_audit(self):
        # Both sides stamped with *real* versions and each decision is
        # what its version entails — the audit must stay quiet.
        from repro.accesscontrol.messages import AccessDecision

        scenario = policy_churn_scenario()
        stack = self.churn_stack(seed=33)
        pep = stack.peps["tenant-1"]
        v1 = stack.prp.current()
        stack.publish_policy(scenario.policy_variants[0], at=1.0)

        def honest_stale(request, decision):
            # Model the PEP having enforced another replica's answer,
            # evaluated honestly under version 1 (Permit for contractors).
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = "Permit"
            forged.policy_version = v1.version
            forged.policy_fingerprint = v1.fingerprint
            return forged

        def late_request():
            pep.enforcement_interceptor = honest_stale
            self.contractor_read(pep)

        stack.sim.schedule_at(2.0, late_request)
        stack.run(until=40.0)
        alerts = stack.drams.alerts
        assert alerts.count(AlertType.POLICY_CHURN) == 1
        assert alerts.count(AlertType.POLICY_VIOLATION) == 0
        assert alerts.count(AlertType.DECISION_MISMATCH) == 0
        assert stack.drams.analyser.churn_audits >= 1


class TestStopHaltsPolicyPlane:
    def test_drams_stop_cancels_anti_entropy(self):
        stack = MonitoredFederation.build(
            policy_churn_scenario(),
            seed=34,
            drams_config=fast_drams_config(),
            policy_plane=ReplicatedPrpPlane(anti_entropy_interval=0.5),
        )
        stack.start()
        stack.run(until=2.0)
        stack.drams.stop()
        before = stack.sim.executed_events
        stack.run(until=10.0)
        residual = stack.sim.executed_events - before
        assert residual < 50, f"{residual} events after stop()"

    def test_plane_start_rearms_anti_entropy_after_stop(self):
        federation, plane = deployed_plane(propagation_delay=0.05, anti_entropy_interval=0.5)
        replica = plane.retrieval_point_for("pdp-0")
        (host,) = plane.replica_addresses()
        # The direct fan-out is lost, so convergence depends on pulls alone.
        federation.network.set_link_fault(plane.origin_address, host, loss=1.0)
        plane.stop()
        plane.authority.publish(doc("a"), publisher="pap@test")
        federation.sim.run(until=3.0)
        assert replica.version_count() == 0  # stopped: no pulls, fan-out lost
        federation.network.clear_link_fault(plane.origin_address, host)
        plane.start()
        federation.sim.run(until=6.0)
        assert replica.version_count() == 1
        assert plane.converged()
