"""Fault-injection plane: network fault primitives, crash/restart
semantics per layer, the FaultPlan DSL, retry backoff, and the
duplication/reordering idempotency properties."""

import pytest

from repro.accesscontrol.pep import RetryBackoff
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry, KeyValueContract
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.crypto.signatures import SigningKey
from repro.faults import (
    ChaosController,
    FaultEvent,
    FaultPlan,
    clock_skew,
    crash,
    latency_spike,
    link_degrade,
    partition,
    restart,
)
from repro.federation.federation import Federation, FederationConfig
from repro.harness import MonitoredFederation
from repro.policydist import PrpReplica, ReplicatedPrpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Host, Message, Network, NetworkError
from repro.simnet.simulator import Simulator
from repro.workload.scenarios import (
    federation_scale_scenario,
    healthcare_scenario,
    partition_storm_scenario,
)
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import Effect, Policy, Rule
from tests.conftest import fast_drams_config


class Recorder(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.received: list[Message] = []
        self.received_at: list[float] = []

    def receive(self, message):
        self.received.append(message)
        self.received_at.append(self.sim.now)


def net_pair(latency=0.5, seed=11):
    sim = Simulator()
    net = Network(sim, SeededRng(seed, "fault-tests"), ConstantLatency(latency))
    return sim, net, Recorder(net, "a"), Recorder(net, "b")


def doc(tag="base"):
    return policy_to_dict(
        Policy(
            policy_id=f"p-{tag}",
            rule_combining="first-applicable",
            rules=[Rule(f"deny-{tag}", Effect.DENY)],
        )
    )


# -- network primitives ------------------------------------------------------------


class TestInFlightDeliveryToCrashedHost:
    def test_message_to_detached_host_is_dropped_and_counted(self):
        sim, net, a, b = net_pair(latency=0.5)
        a.send("b", "ping", {"x": 1})
        sim.schedule(0.1, lambda: net.detach("b"))
        sim.run(until=2.0)
        assert b.received == []
        assert net.stats.dropped == 1
        assert net.stats.dropped_dead == 1

    def test_restart_does_not_resurrect_inflight_messages(self):
        # A message scheduled toward incarnation N must not arrive at
        # incarnation N+1: the restarted process never saw the request.
        sim, net, a, b = net_pair(latency=0.5)
        a.send("b", "ping", {"x": 1})
        sim.schedule(0.1, lambda: net.detach("b"))
        sim.schedule(0.2, lambda: net.attach(b))
        sim.schedule(0.7, lambda: a.send("b", "ping", {"x": 2}))
        sim.run(until=5.0)
        assert [m.payload["x"] for m in b.received] == [2]
        assert net.stats.dropped_dead == 1

    def test_send_from_detached_host_is_dropped_and_counted(self):
        # A crashed process whose timers keep firing is a dead host
        # talking: dropped and counted, never an aborted simulation.
        sim, net, a, b = net_pair()
        net.detach("a")
        assert a.send("b", "ping", {"x": 1}) is None
        sim.run(until=2.0)
        assert b.received == []
        assert (net.stats.sent, net.stats.dropped, net.stats.dropped_dead) == (0, 1, 1)
        # An address that was never attached is a wiring bug, not a fault.
        with pytest.raises(NetworkError, match="unknown source host"):
            net.send("ghost", "b", "ping", {})

    def test_is_attached_tracks_lifecycle(self):
        _, net, _, b = net_pair()
        assert net.is_attached("b")
        net.detach("b")
        assert not net.is_attached("b")
        assert net.host("b") is None
        net.attach(b)
        assert net.is_attached("b")


class TestAsymmetricPartition:
    def test_one_way_partition_blocks_only_forward(self):
        sim, net, a, b = net_pair(latency=0.01)
        net.partition(["a"], ["b"], symmetric=False)
        assert net.is_partitioned("a", "b")
        assert not net.is_partitioned("b", "a")
        a.send("b", "ping", {})
        b.send("a", "pong", {})
        sim.run(until=1.0)
        assert b.received == []
        assert len(a.received) == 1

    def test_heal_partition_restores_both_structures(self):
        sim, net, a, b = net_pair(latency=0.01)
        net.partition(["a"], ["b"], symmetric=True)
        net.partition(["b"], ["a"], symmetric=False)
        net.heal_partition(["a"], ["b"])
        assert not net.is_partitioned("a", "b")
        assert not net.is_partitioned("b", "a")
        a.send("b", "ping", {})
        sim.run(until=1.0)
        assert len(b.received) == 1


class TestLinkFaults:
    def test_total_loss_drops_every_message(self):
        sim, net, a, b = net_pair(latency=0.01)
        fault = net.set_link_fault("a", "b", loss=1.0)
        for _ in range(5):
            a.send("b", "ping", {})
        sim.run(until=1.0)
        assert b.received == []
        assert fault.dropped == 5
        assert net.stats.dropped == 5

    def test_duplication_delivers_same_message_twice(self):
        sim, net, a, b = net_pair(latency=0.01)
        net.set_link_fault("a", "b", duplicate=1.0)
        a.send("b", "ping", {"x": 1})
        sim.run(until=1.0)
        assert len(b.received) == 2
        assert b.received[0].msg_id == b.received[1].msg_id
        assert net.stats.duplicated == 1
        assert net.stats.delivered == 2

    def test_extra_latency_delays_delivery(self):
        sim, net, a, b = net_pair(latency=0.01)
        net.set_link_fault("a", "b", extra_latency=0.4)
        a.send("b", "ping", {})
        sim.run(until=1.0)
        assert b.received_at == [pytest.approx(0.41)]

    def test_reorder_jitter_spreads_arrivals_without_losing_any(self):
        sim, net, a, b = net_pair(latency=0.01)
        net.set_link_fault("a", "b", reorder_jitter=0.5)
        for i in range(10):
            a.send("b", "ping", {"i": i})
        sim.run(until=2.0)
        assert sorted(m.payload["i"] for m in b.received) == list(range(10))
        assert all(0.01 <= at <= 0.51 for at in b.received_at)
        spread = max(b.received_at) - min(b.received_at)
        assert spread > 0.0

    def test_symmetric_fault_and_clear(self):
        sim, net, a, b = net_pair(latency=0.01)
        net.set_link_fault("a", "b", loss=1.0, symmetric=True)
        assert net.link_fault("b", "a") is not None
        net.clear_link_fault("a", "b", symmetric=True)
        assert net.link_fault("a", "b") is None
        assert net.link_fault("b", "a") is None
        a.send("b", "ping", {})
        sim.run(until=1.0)
        assert len(b.received) == 1

    def test_fault_validation(self):
        _, net, _, _ = net_pair()
        with pytest.raises(ValueError):
            net.set_link_fault("a", "b", loss=1.5)
        with pytest.raises(ValueError):
            net.set_link_fault("a", "b", reorder_jitter=-1)


class TestClockSkew:
    def test_local_now_offsets_simulator_time(self):
        sim, net, a, _ = net_pair()
        assert a.local_now == sim.now
        a.clock_offset = 2.5
        sim.run(until=1.0)
        assert a.local_now == pytest.approx(sim.now + 2.5)


# -- retry backoff (satellite 1) ---------------------------------------------------


class TestRetryBackoff:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryBackoff(base=0.0, cap=1.0)
        with pytest.raises(ValidationError):
            RetryBackoff(base=1.0, cap=0.5)
        with pytest.raises(ValidationError):
            RetryBackoff(base=0.1, cap=1.0, multiplier=0.5)

    def test_first_window_clamps_to_base_and_budget(self):
        assert RetryBackoff(base=0.2, cap=1.0).first_window(30.0) == 0.2
        assert RetryBackoff(base=0.2, cap=1.0).first_window(0.05) == 0.05

    def test_next_window_decorrelated_and_bounded(self):
        rng = SeededRng(7, "backoff")
        backoff = RetryBackoff(base=0.1, cap=0.8, multiplier=3.0)
        previous = backoff.first_window(30.0)
        for _ in range(50):
            window = backoff.next_window(previous, 30.0, rng)
            assert 0.1 <= window <= 0.8
            previous = window
        # The remaining budget is a hard clamp.
        assert backoff.next_window(0.5, 0.03, rng) == 0.03

    def test_default_pep_draws_no_backoff_randomness(self, network):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=17, with_drams=False, plane=plane
        )
        for pep in stack.peps.values():
            assert pep.backoff is None
            assert pep._backoff_rng is None

    def test_whole_request_bound_survives_backoff(self):
        # Partition the PEP from every shard: each attempt burns one
        # backoff window, and the final timeout denial must still land
        # within request_timeout of submission.
        plane = ShardedPdpPlane(shards=3)
        stack = MonitoredFederation.build(
            healthcare_scenario(),
            clouds=2,
            seed=17,
            with_drams=False,
            plane=plane,
            pep_kwargs={
                "request_timeout": 1.0,
                "backoff": RetryBackoff(base=0.2, cap=0.6),
            },
        )
        pep = stack.peps["tenant-1"]
        addresses = [s.address for s in plane.services]
        stack.federation.network.partition([pep.address], addresses)
        stack.issue_requests(4, start_at=0.1)
        stack.run(until=10.0)
        assert pep.timeouts > 0
        for outcome in pep.enforced:
            assert outcome.decision.status_code == "timeout"
            assert outcome.latency <= 1.0 + 1e-6

    def test_backoff_failover_still_reaches_a_live_shard(self):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(
            healthcare_scenario(),
            clouds=2,
            seed=17,
            with_drams=False,
            plane=plane,
            pep_kwargs={
                "request_timeout": 2.0,
                "backoff": RetryBackoff(base=0.2, cap=0.6),
            },
        )
        plane.crash_shard(plane.services[0].address)
        stack.issue_requests(20, start_at=0.1)
        stack.run(until=20.0)
        total = sum(len(pep.enforced) for pep in stack.peps.values())
        assert total == 20
        # Crashed shard still sits in the ring: re-routes around it are
        # failovers (a fault), never membership churn.
        assert sum(pep.failovers for pep in stack.peps.values()) > 0
        assert sum(pep.churn_reroutes for pep in stack.peps.values()) == 0
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0


# -- the FaultPlan DSL -------------------------------------------------------------


class TestFaultPlanDsl:
    def plan(self):
        return FaultPlan(
            name="storm",
            events=(
                partition(["pep@tenant-2"], ["pdp-*@*"], at=0.5, heal_at=1.5),
                link_degrade(["a"], ["b"], at=0.2, until=0.8, loss=0.3,
                             duplicate=0.1, reorder=0.05),
                latency_spike(["a"], ["b"], at=0.1, extra_latency=0.2),
                crash("pdp-1@infrastructure", at=2.0, restart_at=3.0),
                restart("pdp-1@infrastructure", at=4.0),
                clock_skew("bcnode@tenant-1", 1.5, at=0.3, until=0.9),
            ),
        )

    def test_roundtrips_through_json_form(self):
        plan = self.plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_duration_spans_last_reversal(self):
        assert self.plan().duration() == 4.0
        assert FaultPlan().duration() == 0.0

    def test_shifted_translates_every_instant(self):
        shifted = self.plan().shifted(10.0)
        assert shifted.events[0].at == 10.5
        assert shifted.events[0].until == 11.5
        assert shifted.events[2].until is None

    def test_kind_validation(self):
        with pytest.raises(ValidationError, match="unknown fault kind"):
            FaultEvent(kind="meteor", at=0.0)
        with pytest.raises(ValidationError, match="after onset"):
            crash("x", at=2.0, restart_at=1.0)
        with pytest.raises(ValidationError, match="group_a and group_b"):
            FaultEvent(kind="partition", at=0.0)
        with pytest.raises(ValidationError, match="at least one target"):
            FaultEvent(kind="crash", at=0.0)
        with pytest.raises(ValidationError, match="targets, not groups"):
            FaultEvent(kind="crash", at=0.0, targets=("x",), group_a=("y",))
        with pytest.raises(ValidationError, match="at least one of"):
            FaultEvent(kind="link_degrade", at=0.0, group_a=("a",), group_b=("b",))
        with pytest.raises(ValidationError, match="extra_latency > 0"):
            FaultEvent(kind="latency_spike", at=0.0, group_a=("a",), group_b=("b",))
        with pytest.raises(ValidationError, match="non-zero skew"):
            FaultEvent(kind="clock_skew", at=0.0, targets=("x",))
        with pytest.raises(ValidationError, match="loss must be"):
            FaultEvent(kind="link_degrade", at=0.0, group_a=("a",),
                       group_b=("b",), loss=2.0)

    def test_from_dict_rejects_unknown_fields_and_bad_shapes(self):
        with pytest.raises(ValidationError, match="unknown fault event field"):
            FaultEvent.from_dict({"kind": "crash", "at": 0.0, "targets": ["x"],
                                  "blast_radius": 3})
        with pytest.raises(ValidationError, match="'kind' and 'at'"):
            FaultEvent.from_dict({"kind": "crash"})
        with pytest.raises(ValidationError, match="list of addresses"):
            FaultEvent.from_dict({"kind": "crash", "at": 0.0, "targets": "x"})
        with pytest.raises(ValidationError, match="unknown fault plan field"):
            FaultPlan.from_dict({"events": [], "revision": 2})
        with pytest.raises(ValidationError, match="must be a list"):
            FaultPlan.from_dict({"events": {}})

    def test_defaults_omitted_from_wire_form(self):
        event = crash("x", at=1.0).to_dict()
        assert event == {"kind": "crash", "at": 1.0, "targets": ["x"]}


# -- PDP shard crash/restart -------------------------------------------------------


class TestPdpShardCrashRestart:
    def build(self, **pep_kwargs):
        plane = ShardedPdpPlane(shards=3)
        stack = MonitoredFederation.build(
            healthcare_scenario(),
            clouds=2,
            seed=23,
            with_drams=False,
            plane=plane,
            pep_kwargs=pep_kwargs or {"request_timeout": 2.0},
        )
        return stack, plane

    def test_crash_loses_inflight_and_stays_in_ring(self):
        stack, plane = self.build()
        victim = plane.services[0]
        events = []
        plane.on_membership(lambda event, svc: events.append((event, svc.address)))
        stack.issue_requests(30, start_at=0.1)
        stack.sim.run(until=0.15)
        plane.crash_shard(victim.address)
        assert victim.crashed
        assert victim.crashes == 1
        assert victim.pending_evaluations == 0
        # The ring does not learn about real crashes: the shard keeps its
        # arc and the PEP's timeout is the failure detector.
        assert victim.address in [s.address for s in plane.services]
        assert ("crashed", victim.address) in events
        stack.run(until=30.0)
        assert len(stack.outcomes) == 30
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0
        assert sum(pep.failovers for pep in stack.peps.values()) > 0

    def test_crash_leaves_the_plane_cache_and_restart_serves_from_it(self):
        stack, plane = self.build()
        (cache,) = plane.caches()
        pep = next(iter(stack.peps.values()))
        outcomes = []

        def ask():
            return pep.request_access(
                subject={"subject-id": "s-1", "role": "doctor"},
                resource={"resource-id": "r-1", "type": "medical-record"},
                action={"action-id": "read"},
                callback=outcomes.append,
            )

        first = ask()
        stack.run(until=5.0)
        victim = next(s for s in plane.services if s.address == plane.endpoints(first)[0])
        assert victim.requests_served == 1
        entries = len(cache)
        assert entries > 0
        plane.crash_shard(victim.address)
        assert len(cache) == entries and cache.invalidations == 0
        plane.restart_shard(victim.address)
        assert victim.decision_cache is cache
        hits, misses = cache.hits, cache.misses
        evaluations = victim._compiled_current()[1].pdp.evaluations
        ask()
        stack.run(until=10.0)
        assert len(outcomes) == 2 and outcomes[1].granted == outcomes[0].granted
        assert victim.requests_served == 2
        assert (cache.hits, cache.misses) == (hits + 1, misses)
        assert victim._compiled_current()[1].pdp.evaluations == evaluations

    def test_crashed_shard_cannot_be_drained(self):
        stack, plane = self.build()
        victim = plane.services[-1]
        plane.crash_shard(victim.address)
        with pytest.raises(ValidationError):
            plane.drain_shard(victim.address)
        # Auto-pick skips the crashed tail and picks a live shard.
        drained = plane.drain_shard()
        assert drained is not victim

    def test_restart_requires_a_crashed_shard(self):
        stack, plane = self.build()
        with pytest.raises(ValidationError):
            plane.restart_shard(plane.services[0].address)

    def test_drams_probes_detach_and_reattach_across_crash(self):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(
            healthcare_scenario(),
            clouds=2,
            seed=29,
            with_drams=True,
            drams_config=fast_drams_config(),
            plane=plane,
        )
        stack.start()
        victim = plane.services[0]
        assert victim in stack.drams.pdp_services
        plane.crash_shard(victim.address)
        assert victim not in stack.drams.pdp_services
        plane.restart_shard(victim.address)
        assert victim in stack.drams.pdp_services
        assert stack.drams.pdp_services.count(victim) == 1


# -- PRP replica crash/restart -----------------------------------------------------


def deployed_policy_plane(**kwargs):
    federation = Federation(FederationConfig(name="faults-policydist", seed=5))
    plane = ReplicatedPrpPlane(**kwargs).deploy(federation)
    return federation, plane


class TestPrpReplicaCrashRestart:
    def test_crash_loses_staged_but_not_applied_history(self):
        replica = PrpReplica("pdp-0")
        store = PolicyRetrievalPoint()
        for index, document in enumerate([doc("a"), doc("b"), doc("c")]):
            store.publish(document, publisher="pap@test", published_at=float(index))
        records = [version.to_record() for version in store.history()]
        replica.apply_record(records[0])
        replica.apply_record(records[2])  # out of order: staged, not applied
        assert replica.version_count() == 1
        assert replica.lose_staged() == 1
        # The durable store survives; the staging buffer does not.
        assert replica.version_count() == 1
        replica.apply_record(records[1])
        assert replica.version_count() == 2

    def test_crashed_replica_rebootstraps_through_anti_entropy(self):
        federation, plane = deployed_policy_plane(
            propagation_delay=0.1, anti_entropy_interval=0.5
        )
        replica = plane.retrieval_point_for("pdp-0")
        plane.authority.publish(doc("a"), publisher="pap@test")
        federation.sim.run(until=1.0)
        assert replica.version_count() == 1
        plane.crash_replica("pdp-0")
        # Published while the replica is dark: the fan-out record dies on
        # the detached host.
        plane.authority.publish(doc("b"), publisher="pap@test")
        plane.authority.publish(doc("c"), publisher="pap@test")
        federation.sim.run(until=3.0)
        assert replica.version_count() == 1
        plane.restart_replica("pdp-0")
        federation.sim.run(until=6.0)
        assert replica.version_count() == 3
        assert replica.current().fingerprint == plane.authority.current().fingerprint

    def test_crashed_replica_does_not_pull_while_down(self):
        federation, plane = deployed_policy_plane(anti_entropy_interval=0.2)
        plane.retrieval_point_for("pdp-0")
        plane.authority.publish(doc("a"), publisher="pap@test")
        plane.crash_replica("pdp-0")
        before = federation.network.stats.sent
        federation.sim.run(until=2.0)
        replica_sends = [
            address for address in plane.replica_addresses()
            if plane.consumer_at(address) == "pdp-0"
        ]
        assert replica_sends  # the host exists, it just stays silent
        assert plane.replicas()["pdp-0"].version_count() == 0
        # No NetworkError was raised by a detached sender during the run.
        assert federation.network.stats.sent >= before


# -- blockchain node crash/rejoin --------------------------------------------------


def build_cluster(n=3, latency=0.005, hashrate=256.0, seed=5):
    rng = SeededRng(seed, "fault-node-tests")
    sim = Simulator()
    net = Network(sim, rng, ConstantLatency(latency))
    registry = ContractRegistry()
    registry.deploy(KeyValueContract())
    config = BlockchainConfig(
        chain_id="fault-cluster", difficulty_bits=8.0, target_block_interval=0.5,
        retarget_window=0, pow_mode="simulated", confirmations=1,
    )
    keys = {f"n{i}": SigningKey.generate(f"n{i}".encode()) for i in range(n)}
    client_key = SigningKey.generate(b"client")
    all_keys = {name: key.public for name, key in keys.items()}
    all_keys["client"] = client_key.public
    nodes = [
        BlockchainNode(net, f"n{i}", config, registry, rng,
                       key_lookup=all_keys.get, signing_key=keys[f"n{i}"],
                       hashrate=hashrate)
        for i in range(n)
    ]
    addresses = [node.address for node in nodes]
    for node in nodes:
        node.connect(addresses)
    return sim, net, nodes, client_key


class TestChainNodeCrashRejoin:
    def test_rejoining_node_syncs_to_peer_head_without_forking(self):
        sim, net, nodes, _ = build_cluster(n=3)
        for node in nodes:
            node.start()
        sim.run(until=5.0)
        nodes[0].crash()
        assert nodes[0].crashed
        assert not net.is_attached(nodes[0].address)
        sim.run(until=12.0)
        behind = nodes[0].chain.height
        assert nodes[1].chain.height > behind
        nodes[0].restart()
        assert nodes[0].resyncs == 1
        sim.run(until=25.0)
        assert not nodes[0].crashed and not nodes[0]._syncing
        heads = {node.chain.head.hash for node in nodes}
        assert len(heads) == 1
        assert nodes[0].chain.height > behind

    def test_mempool_journal_survives_crash_and_refloods(self):
        sim, net, nodes, client_key = build_cluster(n=3)
        for node in nodes:
            node.start()
        sim.run(until=3.0)
        nodes[0].crash()
        tx = Transaction(
            sender="client",
            contract="kvstore",
            method="put",
            args={"key": "k", "value": "v"},
            seq=1,
            tx_id="tx-1",
        ).sign(client_key)
        # Accepted into the crashed node's mempool (the write-ahead
        # journal) but not gossiped while dark.
        assert nodes[0].submit_transaction(tx)
        sim.run(until=6.0)
        assert nodes[1].chain.tx_location(tx.tx_id) is None
        nodes[0].restart()
        sim.run(until=20.0)
        assert nodes[1].chain.tx_location(tx.tx_id) is not None

    def test_crash_is_idempotent_and_stops_mining(self):
        sim, net, nodes, _ = build_cluster(n=3)
        for node in nodes:
            node.start()
        sim.run(until=2.0)
        height = nodes[0].chain.height
        nodes[0].crash()
        nodes[0].crash()
        assert nodes[0].crashes == 1
        sim.run(until=6.0)
        assert nodes[0].chain.height == height


# -- idempotency properties (satellite 3) ------------------------------------------


class TestDistributionIdempotency:
    def converged_fingerprints(self, plane):
        authority = plane.authority
        return {
            consumer: (store.version_count(), store.current().fingerprint)
            for consumer, store in plane.replicas().items()
        }, (authority.version_count(), authority.current().fingerprint)

    def test_duplicated_prp_records_never_change_converged_state(self):
        federation, plane = deployed_policy_plane(
            propagation_delay=0.05, anti_entropy_interval=0.5
        )
        replica = plane.retrieval_point_for("pdp-0")
        target = next(
            address for address in plane.replica_addresses()
            if plane.consumer_at(address) == "pdp-0"
        )
        federation.network.set_link_fault(
            plane.origin_address, target, duplicate=1.0, symmetric=True
        )
        for tag in ("a", "b", "c", "d"):
            plane.authority.publish(doc(tag), publisher="pap@test")
        federation.sim.run(until=5.0)
        replicas, authority = self.converged_fingerprints(plane)
        assert all(state == authority for state in replicas.values())
        assert replica.records_duplicate > 0

    def test_reordered_prp_records_never_change_converged_state(self):
        federation, plane = deployed_policy_plane(
            propagation_delay=0.05, anti_entropy_interval=0.5
        )
        for consumer in ("pdp-0", "pdp-1"):
            plane.retrieval_point_for(consumer)
        targets = plane.replica_addresses()
        for target in targets:
            federation.network.set_link_fault(
                plane.origin_address, target, reorder_jitter=0.4
            )
        for tag in ("a", "b", "c", "d", "e"):
            plane.authority.publish(doc(tag), publisher="pap@test")
        federation.sim.run(until=6.0)
        replicas, authority = self.converged_fingerprints(plane)
        assert all(state == authority for state in replicas.values())


# -- the ChaosController -----------------------------------------------------------


class TestChaosController:
    def storm_stack(self, plan=None, seed=47, with_drams=False):
        plane = ShardedPdpPlane(shards=2)
        stack = MonitoredFederation.build(
            partition_storm_scenario(),
            clouds=2,
            seed=seed,
            with_drams=with_drams,
            drams_config=fast_drams_config() if with_drams else None,
            plane=plane,
            pep_kwargs={
                "request_timeout": 2.0,
                "backoff": RetryBackoff(base=0.2, cap=0.6),
            },
        )
        if with_drams:
            stack.start()
        controller = stack.inject_faults(plan) if plan is not None else None
        return stack, plane, controller

    def test_arm_is_idempotent(self):
        plan = FaultPlan(events=(clock_skew("pep@tenant-1", 1.0, at=0.1),))
        stack, _, controller = self.storm_stack(plan)
        controller.arm()
        stack.run(until=1.0)
        assert len(controller.applied) == 1

    def test_partition_applies_and_heals_on_schedule(self):
        plan = FaultPlan(events=(
            partition(["pep@tenant-2"], ["pdp-*@*"], at=0.5, heal_at=1.5),
        ))
        stack, plane, controller = self.storm_stack(plan)
        net = stack.federation.network
        pep = stack.peps["tenant-2"]
        shard = plane.services[0].address
        stack.sim.run(until=1.0)
        assert net.is_partitioned(pep.address, shard)
        stack.sim.run(until=2.0)
        assert not net.is_partitioned(pep.address, shard)

    def test_crash_and_restart_record_shard_ttr(self):
        plan = FaultPlan(events=(
            crash("pdp-0@*", at=0.5, restart_at=1.5),
        ))
        stack, plane, controller = self.storm_stack(plan)
        stack.issue_requests(40, start_at=0.1)
        # A second wave after the scripted restart, so the recovered
        # shard has post-restart work (its TTR endpoint).
        stack.issue_requests(20, start_at=2.0)
        stack.run(until=20.0)
        assert plane.services[0].crashes == 1
        assert not plane.services[0].crashed
        slos = controller.recorder.slos()
        recovered = [r for r in slos["recoveries"] if r["component"] == "pdp-shard"]
        assert len(recovered) == 1
        assert recovered[0]["ttr"] >= 0.0
        assert slos["watches_outstanding"] == 0
        assert len(stack.outcomes) == 60

    def test_chain_node_crash_restart_through_controller(self):
        plan = FaultPlan(events=(
            crash("bcnode@tenant-2", at=1.0, restart_at=3.0),
        ))
        stack, _, controller = self.storm_stack(plan, with_drams=True)
        stack.issue_requests(10, start_at=0.1)
        stack.run(until=15.0)
        slos = controller.recorder.slos()
        recovered = [r for r in slos["recoveries"] if r["component"] == "chain-node"]
        assert len(recovered) == 1
        node = stack.drams.nodes["tenant-2"]
        assert not node.crashed and not node._syncing

    def test_clock_skew_sets_and_resets_offset(self):
        plan = FaultPlan(events=(
            clock_skew("pep@tenant-1", 2.0, at=0.5, until=1.5),
        ))
        stack, _, _ = self.storm_stack(plan)
        host = stack.federation.network.host("pep@tenant-1")
        stack.sim.run(until=1.0)
        assert host.clock_offset == 2.0
        stack.sim.run(until=2.0)
        assert host.clock_offset == 0.0

    def test_generic_host_crash_restart_roundtrip(self):
        plan = FaultPlan(events=(
            crash("li@tenant-1", at=0.5, restart_at=1.0),
        ))
        stack, _, controller = self.storm_stack(plan, with_drams=True)
        net = stack.federation.network
        stack.sim.run(until=0.7)
        assert not net.is_attached("li@tenant-1")
        stack.sim.run(until=1.2)
        assert net.is_attached("li@tenant-1")

    def test_restart_link_clear_and_replica_recovery_through_controller(self):
        # The three plan paths no other run reaches: a plain ``restart``
        # event, a ``link_degrade`` that clears at ``until`` and a crash
        # whose target is a PRP replica.
        replica = "prp-pdp-0@infrastructure"
        plan = FaultPlan(events=(
            crash("pep@tenant-2", at=0.2),
            link_degrade(["pep@tenant-1"], ["pdp-*@*"], at=0.3, until=0.9, loss=1.0),
            crash(replica, at=0.4, restart_at=1.0),
            restart("pep@tenant-2", at=0.6),
        ))
        stack = MonitoredFederation.build(
            partition_storm_scenario(),
            clouds=2,
            seed=47,
            with_drams=False,
            plane=ShardedPdpPlane(shards=2),
            policy_plane=ReplicatedPrpPlane(),
        )
        controller = stack.inject_faults(plan)
        net = stack.federation.network
        shards = [service.address for service in stack.plane.services]
        stack.sim.run(until=0.5)
        assert not net.is_attached("pep@tenant-2")
        assert all(net.link_fault("pep@tenant-1", s).loss == 1.0 for s in shards)
        assert not net.is_attached(replica)
        stack.sim.run(until=0.8)
        assert net.is_attached("pep@tenant-2")
        stack.sim.run(until=2.0)
        assert all(net.link_fault("pep@tenant-1", s) is None for s in shards)
        assert all(net.link_fault(s, "pep@tenant-1") is None for s in shards)
        slos = controller.recorder.slos()
        (recovery,) = slos["recoveries"]
        assert (recovery["component"], recovery["target"]) == ("prp-replica", "pdp-0")
        assert recovery["restarted_at"] == 1.0 and recovery["ttr"] >= 0.0
        assert slos["watches_outstanding"] == 0
        assert [event["kind"] for event in controller.applied] == [
            "crash", "link_degrade", "crash", "restart"]

    @pytest.mark.parametrize(
        "make_plane",
        [SinglePdpPlane, lambda **kwargs: ShardedPdpPlane(shards=1, **kwargs)],
        ids=["single", "sharded-1"],
    )
    def test_only_shard_crash_with_evaluations_in_flight(self, make_plane):
        # N = 1 crashes like any pool: in-flight evaluations are fenced
        # and counted, the probe follows the membership events, and the
        # PEPs' timeouts resolve what the dead process never answered.
        plane = make_plane(service_kwargs={"base_processing_delay": 0.2})
        stack = MonitoredFederation.build(
            partition_storm_scenario(),
            clouds=2,
            seed=47,
            with_drams=True,
            drams_config=fast_drams_config(),
            plane=plane,
            pep_kwargs={"request_timeout": 2.0},
        )
        stack.start()
        shard = plane.services[0]
        events = []
        plane.on_membership(lambda event, service: events.append((event, service.address)))
        stack.inject_faults(FaultPlan(events=(crash(shard.address, at=0.8, restart_at=1.5),)))
        stack.issue_requests(200, start_at=0.1)
        stack.run(until=30.0)
        assert shard.crashes == 1 and not shard.crashed
        assert shard.evaluations_lost > 0
        assert events == [("crashed", shard.address), ("restarted", shard.address)]
        assert stack.drams.pdp_services == [shard]  # probe re-attached
        assert len(stack.outcomes) == 200
        assert sum(pep.timeouts for pep in stack.peps.values()) >= shard.evaluations_lost

    def test_crashed_pep_keeps_the_run_alive(self):
        # The workload keeps dispatching through the dead PEP and its
        # timeout timers keep firing; those sends are dropped, the timers
        # fail the requests over, and every issued request resolves.
        plan = FaultPlan(events=(crash("pep@tenant-1", at=0.55, restart_at=1.5),))
        stack = MonitoredFederation.build(
            federation_scale_scenario(),
            clouds=2,
            seed=47,
            with_drams=True,
            drams_config=fast_drams_config(),
            plane=ShardedPdpPlane(shards=2),
        )
        stack.start()
        stack.inject_faults(plan)
        stack.issue_requests(200)
        stack.run(until=60.0)
        assert len(stack.outcomes) == 200
        assert stack.federation.network.stats.dropped_dead > 0
        assert stack.federation.network.is_attached("pep@tenant-1")

    def test_unknown_target_pattern_raises(self):
        stack, _, controller = self.storm_stack(FaultPlan())
        with pytest.raises(ValidationError, match="matched no host"):
            controller._resolve(("no-such-*@anywhere",))
        # Literal addresses pass through unexpanded (they may name a
        # component that attaches later).
        assert controller._resolve(("x@y",)) == ["x@y"]

    def test_pattern_resolution_expands_and_dedupes(self):
        stack, plane, controller = self.storm_stack(FaultPlan())
        shard = plane.services[0].address
        resolved = controller._resolve(("pdp-*@*", shard))
        assert resolved == [s.address for s in plane.services]

    def test_controller_rejects_non_plan(self):
        stack, _, _ = self.storm_stack()
        with pytest.raises(ValidationError, match="FaultPlan"):
            ChaosController(
                {"events": []}, sim=stack.sim, network=stack.federation.network
            )
