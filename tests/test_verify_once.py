"""Verify once, size once, decode once.

Every replica of a deployment shares one verified-set, and every gossip
payload and probe log entry carries the object it was built from, whose
wire size is derived from encodings it already holds.  These tests pin the
two halves of that bargain: sharing is *sound* (a tampered copy, forged
signature or substituted key misses the set on every node, a payload the
carrier did not size is sized and decoded afresh, and nothing is shared
across deployments) and the work really is done *once* (exact call counts
on a whole monitored run, with every simulated byte still accounted
exactly).
"""

import dataclasses
import operator
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain import contracts as contracts_module, transaction as transaction_module
from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import ChainValidationError
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry, KeyValueContract
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common import serialization
from repro.common.rng import SeededRng
from repro.crypto.signatures import Signature, SigningKey, VerifyingKey
from repro.drams.logs import LogEntry
from repro.harness import MonitoredFederation
from repro.simnet import network as network_module
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Host, Message, Network
from repro.simnet.simulator import Simulator
from repro.workload.scenarios import healthcare_scenario
from tests.conftest import fast_drams_config
from tests.strategies import headers, transactions

ALICE_KEY = SigningKey.generate(b"verify-once-alice")
MALLORY_KEY = SigningKey.generate(b"verify-once-mallory")


@pytest.fixture
def verify_calls(monkeypatch):
    """Results of every real ``VerifyingKey.verify`` call, counted from outside."""
    results = []
    real_verify = VerifyingKey.verify

    def counted(self, message, signature):
        results.append(real_verify(self, message, signature))
        return results[-1]

    monkeypatch.setattr(VerifyingKey, "verify", counted)
    return results


def build_cluster(n=3, verified=None, key_overrides=None):
    """``n`` non-mining nodes in a full mesh, all handed ``verified``."""
    rng = SeededRng(9, "verify-once")
    sim = Simulator()
    net = Network(sim, rng, ConstantLatency(0.005))
    registry = ContractRegistry()
    registry.deploy(KeyValueContract())
    config = BlockchainConfig(
        chain_id="verify-once",
        difficulty_bits=8.0,
        target_block_interval=0.5,
        retarget_window=0,
        pow_mode="simulated",
        confirmations=1,
    )
    node_keys = {f"n{i}": SigningKey.generate(f"verify-once-n{i}".encode()) for i in range(n)}
    public = {name: key.public for name, key in node_keys.items()}
    public.update(alice=ALICE_KEY.public, mallory=MALLORY_KEY.public)
    nodes = []
    for name, key in node_keys.items():
        lookup = dict(public, **(key_overrides or {}).get(name, {})).get
        node = BlockchainNode(
            net, name, config, registry, rng, lookup, signing_key=key, mine=False, verified=verified
        )
        nodes.append(node)
    for node in nodes:
        node.connect([peer.address for peer in nodes])
    return sim, net, nodes, node_keys


def alice_tx(seq=1, value=1):
    tx = Transaction(
        sender="alice",
        contract="kvstore",
        method="put",
        args={"key": "k", "value": value},
        seq=seq,
        tx_id=f"verify-once-{seq}",
    )
    return tx.sign(ALICE_KEY)


def off_the_wire(item):
    """What a peer decodes: a fresh object with fresh caches."""
    return type(item).from_dict(item.to_dict())


@pytest.fixture
def decode_calls(monkeypatch):
    """``from_dict`` calls of the gossiped and probed classes, counted from outside."""
    calls = Counter()
    for cls in (Transaction, Block, LogEntry):
        real = cls.from_dict.__func__

        def counted(klass, data, real=real):
            calls[klass.__name__] += 1
            return real(klass, data)

        monkeypatch.setattr(cls, "from_dict", classmethod(counted))
    return calls


def gossip_message(kind, payload, dst="n0", src="n1"):
    """A hand-built gossip message: what arrives from outside the process."""
    return Message(src=src, dst=dst, kind=kind, payload=payload, msg_id="hand-built")


class TestSharingIsSound:
    def test_genuine_copy_hits_and_tampered_copies_miss_on_another_node(self, verify_calls):
        verified = set()
        _sim, _net, (a, b, _c), _keys = build_cluster(verified=verified)
        tx = alice_tx()
        assert a.chain.validate_transaction(tx)
        assert verify_calls == [True]
        # The sharing is real: B admits the very same bytes without a check…
        assert b.chain.validate_transaction(off_the_wire(tx))
        assert verify_calls == [True]
        # …so every rejection below is the key missing, not a cold cache.
        entries = set(verified)
        bumped = Signature(e=tx.signature.e, s=tx.signature.s + 1)
        tampered = [
            tx.replace(args={"key": "k", "value": 999}),
            tx.replace(signature=bumped),
            tx.replace(signature=None).sign(MALLORY_KEY),
            tx.replace(sender="mallory"),
        ]
        for forged in tampered:
            assert not b.chain.validate_transaction(off_the_wire(forged))
            assert verified == entries
        assert verify_calls == [True] + [False] * len(tampered)

    def test_substituted_verifying_key_misses(self, verify_calls):
        verified = set()
        wrong_key = {"n1": {"alice": MALLORY_KEY.public}}
        _sim, _net, (a, b, _c), _keys = build_cluster(verified=verified, key_overrides=wrong_key)
        tx = alice_tx()
        assert a.chain.validate_transaction(tx)
        entries = set(verified)
        assert not b.chain.validate_transaction(off_the_wire(tx))
        assert verified == entries
        assert verify_calls == [True, False]

    def test_block_altered_after_acceptance_elsewhere_is_rejected(self, verify_calls):
        verified = set()
        _sim, _net, (a, b, c), keys = build_cluster(verified=verified)
        txs = [alice_tx(seq, value=seq) for seq in (1, 2)]
        assert all(a.chain.validate_transaction(tx) for tx in txs)
        block = a.chain.create_block("n0", txs, 1.0, signing_key=keys["n0"])
        assert a.chain.add_block(block)
        entries = set(verified)
        assert verify_calls == [True, True, True]  # two transactions, one miner signature
        calls = len(verify_calls)

        swapped_body = off_the_wire(block)
        swapped_body.transactions[1] = txs[1].replace(args={"key": "k", "value": 999})
        bumped_signature = off_the_wire(block)
        bumped_signature.miner_signature = Signature(
            e=block.miner_signature.e, s=block.miner_signature.s + 1
        )
        other_miner = off_the_wire(block).sign(keys["n1"])
        for forged in (swapped_body, bumped_signature, other_miner):
            with pytest.raises(ChainValidationError):
                b.chain.add_block(forged)
            assert verified == entries
            assert b.chain.height == 0
        assert verify_calls[calls:] == [False, False]  # the body swap fails at the Merkle root

        # The genuine copy is accepted by B and C with no cryptographic work.
        assert b.chain.add_block(off_the_wire(block))
        assert c.chain.add_block(off_the_wire(block))
        assert len(verify_calls) == calls + 2
        assert a.chain.head.hash == b.chain.head.hash == c.chain.head.hash

    def test_sideband_is_only_copied_for_the_same_payload_object(self, sim, network):
        """Beside ``test_relayed_size_is_only_copied_for_the_same_payload_object``."""
        delivered = []

        class Sink(Host):
            def receive(self, message):
                delivered.append(message)

        for address in ("a", "b", "c"):
            Sink(network, address)
        large = {"n": 1, "pad": "x" * 500}
        carrier = Message(src="a", dst="b", kind="k", payload={"n": 1})
        carrier.decoded = built_from = object()
        # A carrier for another payload object hands over neither size nor
        # sideband — even for an equal payload: identity is the guard.
        network.send("a", "b", "k", large, sized=carrier)
        network.multicast("a", ["b", "c"], "k", large, relayed=carrier)
        network.multicast("a", ["b", "c"], "k", dict(carrier.payload), relayed=carrier)
        sim.run()
        assert len(delivered) == 5 and all(message.decoded is None for message in delivered)
        assert all(
            message.size_bytes() == len(serialization.canonical_bytes(message.payload)) + 64
            for message in delivered
        )
        # The very object the carrier holds takes both along, hop after hop.
        del delivered[:]
        network.multicast("a", ["b"], "k", carrier.payload, relayed=carrier)
        sim.run()
        network.multicast("b", ["c"], "k", delivered[0].payload, relayed=delivered[0])
        network.multicast("a", ["c"], "k", large, decoded=built_from)
        sim.run()
        assert [message.decoded for message in delivered] == [built_from] * 3
        # The sideband is no part of the message's identity or of its size.
        last = delivered[2]
        bare = Message("a", "c", "k", large, msg_id=last.msg_id, sent_at=last.sent_at)
        assert bare == last and bare.decoded is None and bare.size_bytes() == last.size_bytes()

    def test_sideband_of_the_wrong_type_is_ignored_and_the_payload_decoded(self, decode_calls):
        class Lookalike(Transaction):
            pass

        tx = alice_tx()
        lookalike = Lookalike(
            sender="mallory", contract="kvstore", method="put", args={}, seq=2, tx_id="tx-2"
        )
        decoys = [tx.to_dict(), Block(header=None), lookalike, "tx"]
        for decoy in decoys:
            _sim, _net, (node, _b, _c), _keys = build_cluster(verified=set())
            message = gossip_message("bc_tx", tx.to_dict())
            message.decoded = decoy
            before = decode_calls["Transaction"]
            node.receive(message)
            assert decode_calls["Transaction"] == before + 1
            (admitted,) = node.mempool.pending()
            assert admitted is not decoy and admitted == tx

        _sim, _net, (a, b, _c), keys = build_cluster(verified=set())
        block = a.chain.create_block("n0", [tx], 1.0, signing_key=keys["n0"])
        message = gossip_message("bc_block", block.to_dict(), dst="n1", src="n0")
        message.decoded = tx  # a Transaction is not a Block
        b.receive(message)
        assert decode_calls["Block"] == 1
        assert b.chain.head.hash == block.hash and b.chain.head is not block

    @given(st.lists(transactions(), max_size=4), headers(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decoding_a_payload_gives_back_the_object_it_was_built_from(self, txs, header, signed):
        """The equality the sideband relies on: ``from_dict(x.to_dict())`` is ``x``."""
        block = Block(header=header, transactions=txs)
        if signed:
            block.sign(ALICE_KEY)
        for original in (*txs, block, header):
            decoded = off_the_wire(original)
            assert decoded is not original
            for field in dataclasses.fields(original):
                ours, theirs = getattr(decoded, field.name), getattr(original, field.name)
                assert ours == theirs and type(ours) is type(theirs), field.name
        received = off_the_wire(block)
        for original, decoded in zip(txs, received.transactions):
            assert decoded.content_hash() == original.content_hash()
            assert decoded.size_bytes() == original.size_bytes()
            assert decoded.args_size() == original.args_size()
        assert received.hash == block.hash
        assert received.body_size_bytes() == block.body_size_bytes()
        assert received.compute_merkle_root() == block.compute_merkle_root()

    def test_replicas_without_a_shared_set_are_cold(self, verify_calls):
        _sim, _net, (a, b, _c), _keys = build_cluster(verified=None)
        assert a.chain._verified is not b.chain._verified
        tx = alice_tx()
        assert a.chain.validate_transaction(tx)
        assert b.chain.validate_transaction(off_the_wire(tx))
        assert verify_calls == [True, True]


def recorded_encodings(monkeypatch, *modules):
    """Every value ``modules`` canonically encode from here on, in order."""
    encoded = []  # holds the objects, so their ids stay unique

    def counted(value):
        encoded.append(value)
        return serialization.canonical_bytes(value)

    for module in modules:
        monkeypatch.setattr(module, "canonical_bytes", counted)
    return encoded


@pytest.fixture
def content_encodings(monkeypatch):
    """Every value ``Transaction`` or ``ContractEngine`` canonically encodes, in order."""
    return recorded_encodings(monkeypatch, transaction_module, contracts_module)


@pytest.fixture
def sized_payloads(monkeypatch):
    """Every payload ``Message.size_bytes`` canonically encodes, in order."""
    return recorded_encodings(monkeypatch, network_module)


def monitored_run(tap):
    """One small monitored deployment (4 chain nodes), every message tapped."""
    stack = MonitoredFederation.build(
        healthcare_scenario(), clouds=2, seed=11, drams_config=fast_drams_config()
    )
    stack.federation.network.add_tap(tap)
    stack.start()
    stack.issue_requests(8)
    stack.run(until=30.0)
    assert stack.drams.analyser.checked == 8
    return stack


class TestWorkIsDoneOnce:
    def test_one_verification_per_transaction_and_block_and_one_encoding_per_payload(
        self, verify_calls, sized_payloads
    ):
        messages = []
        stack = monitored_run(messages.append)
        assert len(stack.drams.nodes) == 4
        gossip = [m for m in messages if m.kind in ("bc_tx", "bc_block")]
        tx_ids = {m.payload["tx_id"] for m in gossip if m.kind == "bc_tx"}
        block_hashes = {
            BlockHeader.from_dict(m.payload["header"]).block_hash()
            for m in gossip
            if m.kind == "bc_block"
        }
        assert len(tx_ids) >= 4 * 8 and len(block_hashes) >= 10
        # Exactly one real check per signature in the whole federation: no
        # replica repeats one, and none is skipped.
        assert all(verify_calls)
        assert len(verify_calls) == len(tx_ids) + len(block_hashes)
        # Each gossip payload object crosses ~3 links per node it reaches
        # and, like every probe's log entry, is never encoded for its wire
        # size: the object it travels with derives it.  Only the messages
        # that carry no such object are encoded, once each.
        payloads = {id(m.payload): m.payload for m in gossip}
        assert len(gossip) > 2 * len(payloads)
        encodings = Counter(id(value) for value in sized_payloads)
        derived = [m for m in messages if m.kind in ("bc_tx", "bc_block", "drams_log")]
        assert len(derived) > len(gossip) and not any(encodings[id(m.payload)] for m in derived)
        others = [m for m in messages if m.kind not in ("bc_tx", "bc_block", "drams_log")]
        assert others and all(encodings[id(m.payload)] == 1 for m in others)
        assert len(sized_payloads) == len({id(m.payload) for m in others})

        # A second deployment in the same process shares nothing with the
        # first: it starts cold and pays for exactly the same checks.
        first_set = next(iter(stack.drams.nodes.values())).chain._verified
        assert all(node.chain._verified is first_set for node in stack.drams.nodes.values())
        first_calls = len(verify_calls)
        again = monitored_run(lambda message: None)
        second_set = next(iter(again.drams.nodes.values())).chain._verified
        assert second_set is not first_set and second_set == first_set
        assert len(verify_calls) == 2 * first_calls
        assert again.drams.reference_chain().head.hash == stack.drams.reference_chain().head.hash

    def test_honest_gossip_is_never_decoded_and_each_transaction_is_encoded_once(
        self, decode_calls, content_encodings
    ):
        messages = []
        stack = monitored_run(messages.append)
        gossip = [m for m in messages if m.kind in ("bc_tx", "bc_block")]
        # Every gossip message carries the object its payload was built from…
        assert all(type(m.decoded) is (Transaction if m.kind == "bc_tx" else Block) for m in gossip)
        assert all(m.decoded.to_dict() == m.payload for m in gossip)
        # …so no replica decodes anything (block requests, which do, need a
        # fork), and no Logging Interface decodes a probe's log entry.
        assert not decode_calls
        logs = [m for m in messages if m.kind == "drams_log"]
        assert len(logs) == 4 * 8 and all(type(m.decoded) is LogEntry for m in logs)
        # All four replicas hold the same objects, not equal copies (each
        # derives its own genesis).
        mined, *others = [node.chain.main_chain()[1:] for node in stack.drams.nodes.values()]
        applied = [tx for block in mined for tx in block.transactions]
        assert len(applied) >= 4 * 8
        for chain in others:
            assert len(chain) == len(mined) and all(map(operator.is_, chain, mined))
        # One encoding of each transaction's signed content in the whole
        # deployment, whoever asks first.  ``args`` is never encoded on its
        # own: the gas size is that encoding less the other signed fields,
        # and the wire size is it merged with the unsigned ones, each of
        # those small objects encoded once per transaction.
        signed = Counter(value["tx_id"] for value in content_encodings if "args" in value)
        gas = Counter(
            value["tx_id"] for value in content_encodings if "tx_id" in value and "args" not in value
        )
        unsigned = [value for value in content_encodings if "tx_id" not in value]
        gossiped = {m.decoded.tx_id for m in gossip if m.kind == "bc_tx"}
        assert gossiped <= set(signed) and set(signed.values()) == {1}
        assert {tx.tx_id for tx in applied} == set(gas) and set(gas.values()) == {1}
        assert all(set(value) == {"signature", "submitted_at"} for value in unsigned)
        assert len(unsigned) == len(gossiped)

    def test_a_payload_from_outside_is_still_decoded_and_still_checked_by_content(
        self, decode_calls, verify_calls
    ):
        _sim, _net, (a, b, c), keys = build_cluster(verified=set())
        tx = alice_tx()
        a.receive(gossip_message("bc_tx", tx.to_dict()))
        assert decode_calls == {"Transaction": 1} and verify_calls == [True]  # decoded, and pays
        c.receive(gossip_message("bc_tx", tx.to_dict(), dst="n2"))
        assert decode_calls == {"Transaction": 2} and verify_calls == [True]  # decoded, and hits
        assert a.mempool.pending() == c.mempool.pending() == [tx]
        assert a.mempool.pending()[0] is not c.mempool.pending()[0]

        block = a.chain.create_block("n0", a.mempool.pending(), 1.0, signing_key=keys["n0"])
        assert a.chain.add_block(block)
        assert verify_calls == [True, True]  # the miner signature
        b.receive(gossip_message("bc_block", block.to_dict(), dst="n1", src="n0"))
        assert decode_calls == {"Transaction": 3, "Block": 1} and verify_calls == [True, True]
        assert b.chain.head.hash == block.hash and b.chain.head is not block
        forged = block.to_dict()
        forged["transactions"][0]["args"] = {"key": "k", "value": 999}
        c.receive(gossip_message("bc_block", forged, dst="n2", src="n0"))
        assert decode_calls["Block"] == 2 and c.invalid_blocks_seen == 1 and c.chain.height == 0

    def test_every_message_is_sized_exactly(self):
        sizes = []
        kinds = set()

        def tap(message):
            kinds.add(message.kind)
            expected = len(serialization.canonical_bytes(message.payload)) + 64
            assert message.size_bytes() == expected, message.kind
            sizes.append(expected)

        stack = monitored_run(tap)
        assert {"bc_tx", "bc_block", "ac_request", "drams_log"} <= kinds
        assert stack.federation.network.stats.bytes_sent == sum(sizes)
        assert stack.federation.network.stats.sent == len(sizes)

    def test_relayed_size_is_only_copied_for_the_same_payload_object(self, sim, network):
        class Sink(Host):
            def receive(self, message):
                pass

        for address in ("a", "b", "c"):
            Sink(network, address)
        large = {"n": 1, "pad": "x" * 500}
        carrier = Message(src="a", dst="b", kind="k", payload={"n": 1})
        # A carrier for some other payload object is ignored, not trusted.
        sent = network.send("a", "b", "k", large, sized=carrier)
        assert sent.size_bytes() == len(serialization.canonical_bytes(large)) + 64
        assert sent.size_bytes() > carrier.size_bytes()
        network.multicast("a", ["b", "c"], "k", large, relayed=carrier)
        assert network.stats.bytes_sent == 3 * sent.size_bytes()
