"""Derived sizes: every wire and gas size equals the encode it replaces.

Transactions, blocks and log entries report their wire size from encodings
they already hold (the signing payload, the canonical log payload) through
``merged_length``, and a transaction's gas size is its signing payload less
the other signed fields.  Only lengths are derived; every signed or hashed
byte string still comes from ``canonical_bytes``.  These properties hold
each derivation to ``len(canonical_bytes(...))`` of the value it stands
for, and a partition-storm run with every attack class holds every message
of the run to ``len(canonical_bytes(payload)) + 64``.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.accesscontrol.messages import AccessRequest
from repro.accesscontrol.pep import RetryBackoff
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.blockchain.block import Block
from repro.common.ids import correlation_id, reset_id_counter
from repro.common.serialization import canonical_bytes, merged_length
from repro.drams.logs import EntryType, LogEntry
from repro.faults import FaultPlan, crash, partition
from repro.policydist import ReplicatedPrpPlane
from repro.scenariogen import FederationShape, build_stack_from_spec, default_attacks, preset_spec
from repro.simnet.network import HEADER_BYTES
from repro.threats import ATTACK_CATALOGUE, Adversary
from tests.conftest import fast_drams_config
from tests.strategies import FASTPATH_KEY, args_dicts, headers, json_values, transactions

objects = st.dictionaries(st.text(max_size=6), json_values, max_size=4)
times = st.one_of(st.integers(-(2**40), 2**40), st.floats(allow_nan=False, allow_infinity=False))


def encoded_length(value):
    return len(canonical_bytes(value))


class TestDerivedSizes:
    @given(objects, objects)
    @settings(max_examples=200, deadline=None)
    def test_merged_length_is_the_length_of_the_merge(self, a, b):
        b = {key: value for key, value in b.items() if key not in a}
        merged = encoded_length({**a, **b})
        assert merged_length(encoded_length(a), encoded_length(b)) == merged

    @given(transactions(), times, args_dicts)
    @settings(max_examples=150, deadline=None)
    def test_transaction_sizes_equal_the_full_encode(self, tx, submitted_at, other_args):
        unsigned = tx.replace(signature=None)
        for candidate in (tx, tx.replace(args=other_args), unsigned):
            assert candidate.wire_size() == encoded_length(candidate.to_dict())
            assert candidate.args_size() == encoded_length(candidate.args)
            # The unsigned fields may change after the first sizing.
            candidate.submitted_at = submitted_at
            assert candidate.wire_size() == encoded_length(candidate.to_dict())
        unsigned.sign(FASTPATH_KEY)
        assert unsigned.wire_size() == encoded_length(unsigned.to_dict())

    @given(st.lists(transactions(), max_size=4), headers(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_block_wire_size_equals_the_full_encode(self, txs, header, signed):
        block = Block(header=header, transactions=txs)
        if signed:
            block.sign(FASTPATH_KEY)
        assert block.wire_size() == encoded_length(block.to_dict())

    @given(st.sampled_from(EntryType.ALL), st.text(max_size=8), objects, times)
    @settings(max_examples=150, deadline=None)
    def test_log_entry_wire_size_equals_the_full_encode(self, entry_type, name, payload, at):
        entry = LogEntry(name, entry_type, name, name + "@pep", payload, at)
        assert entry.wire_size() == encoded_length(entry.to_dict())
        assert entry.canonical_payload() == canonical_bytes(payload)

    @given(st.text(max_size=8), st.text(max_size=8), times, times)
    @settings(max_examples=60, deadline=None)
    def test_correlation_follows_the_fields_it_is_memoised_on(self, rid, origin, first, then):
        request = AccessRequest({}, origin, rid, first)
        for issued_at in (first, then):
            request.issued_at = issued_at
            expected = {"request_id": rid, "origin": origin, "issued_at": issued_at}
            assert request.correlation() == correlation_id(expected)


def test_every_message_of_an_attacked_partition_storm_is_sized_exactly():
    """Every attack class at once under a partition and two crashes: forged
    and tampered entries, failover, a restarted node's head-sync, replica
    anti-entropy and light-client traffic.  No message is sized wrongly, and
    every log entry travels beside its wire form."""
    kinds = Counter()

    def tap(message):
        assert message.size_bytes() == encoded_length(message.payload) + HEADER_BYTES, message.kind
        kinds[message.kind] += 1
        # No kind is sent to a host that would silently ignore it.
        host = network.host(message.dst)
        if host is not None:
            assert message.kind in type(host).RECEIVES, (type(host).__name__, message.kind)
        if message.kind == "drams_log":
            assert type(message.decoded) is LogEntry
            assert message.decoded.to_dict() == message.payload

    spec = replace(
        preset_spec("partition-storm"),
        federation=FederationShape(clouds=2),
        attacks=tuple(ATTACK_CATALOGUE),
    )
    plane = ShardedPdpPlane(shards=2)
    reset_id_counter()
    stack = build_stack_from_spec(
        spec,
        seed=3,
        drams_config=fast_drams_config(),
        plane=plane,
        policy_plane=ReplicatedPrpPlane(propagation_delay=0.2, propagation_jitter=0.05),
        light_clients=True,
        pep_kwargs={"request_timeout": 1.0, "backoff": RetryBackoff(base=0.2, cap=0.5)},
    )
    network = stack.federation.network
    network.add_tap(tap)
    stack.start()
    shard_a, shard_b = (service.address for service in plane.services)
    storm = (
        partition(["pep@tenant-2"], [shard_a], at=0.6, heal_at=1.8),
        crash("bcnode@tenant-2", at=1.0, restart_at=2.0),
        crash(shard_b, at=2.2, restart_at=3.0),
    )
    stack.inject_faults(FaultPlan(name="partition-storm", events=storm))
    adversary = Adversary(stack.drams)
    for attack in default_attacks(spec, seed=3):
        adversary.launch(attack, at=1.2)
        if hasattr(attack, "replay_now"):
            envelope = {"subject-id": "mallory", "role": spec.roles[1]}
            replay = attack.replay_now
            stack.sim.schedule_at(4.0, lambda: replay(stack.drams, envelope))
    for start in (0.1, 0.9, 1.4, 2.4, 3.2):
        stack.issue_requests(10, start_at=start)
    stack.run(until=2.5)
    # A log transaction tampered after signing, gossiped with its sideband.
    node = stack.drams.nodes["tenant-1"]
    tx = node.chain.main_chain()[-1].transactions[0]
    forged = tx.replace(tx_id="forged", args={**tx.args, "payload_hash": "0" * 64})
    node._gossip("bc_tx", forged)
    stack.run(until=2.6)
    peers = [peer for peer in stack.drams.nodes.values() if peer is not node]
    assert all(forged.tx_id in peer._seen_txs for peer in peers)
    assert not any(forged in peer.mempool.pending() for peer in peers)
    stack.run(until=30.0)
    assert {"bc_tx", "bc_block", "bc_head", "ac_request", "ac_response", "drams_log"} <= set(kinds)
    assert kinds["drams_log"] > 100 and stack.drams.stats()["alerts_by_type"]
    assert stack.federation.network.stats.sent == sum(kinds.values())
