"""Light-client monitoring: header sync, decision receipts, light auditors."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry, KeyValueContract
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import sha256_hex
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import SigningKey
from repro.crypto.symmetric import SymmetricKey
from repro.drams.contract import CONTRACT_NAME
from repro.drams.logs import EntryType
from repro.harness import MonitoredFederation
from repro.lightclient import (
    DecisionReceipt,
    HeaderClient,
    sideband_link,
)
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.workload.scenarios import healthcare_scenario

KEY = SymmetricKey.generate(entropy=b"lightclient-test-key")


def build_receipt(
    corr="corr-1",
    version=3,
    fingerprint="fp-abc",
    tx_stamp=None,
    bad_payload_hash=False,
    contract=CONTRACT_NAME,
    plaintext=None,
):
    """A synthetic but structurally faithful receipt (no chain needed).

    ``plaintext`` replaces the committed payload bytes (default: a
    decision payload carrying the stamp).
    """
    if plaintext is None:
        plaintext = canonical_bytes(
            {"decision": "Permit", "policy_version": version, "policy_fingerprint": fingerprint}
        )
    args = {
        "correlation_id": corr,
        "entry_type": EntryType.PDP_OUT,
        "payload_hash": sha256_hex(plaintext if not bad_payload_hash else plaintext + b"!"),
        "ciphertext": KEY.encrypt(plaintext).to_dict(),
    }
    stamp_version, stamp_fingerprint = (version, fingerprint) if tx_stamp is None else tx_stamp
    if stamp_fingerprint:
        args["policy_fingerprint"] = stamp_fingerprint
        args["policy_version"] = stamp_version
    tx = Transaction(
        sender="li@tenant", contract=contract, method="record_log", args=args, seq=1, tx_id="tx-1"
    )
    tree = MerkleTree([tx.content_hash(), "sibling-leaf"])
    header = BlockHeader(
        height=1,
        prev_hash="aa" * 32,
        merkle_root=tree.root,
        timestamp=1.0,
        difficulty_bits=8.0,
        miner="m",
    )
    return DecisionReceipt(
        correlation_id=corr,
        entry_type=EntryType.PDP_OUT,
        tx=tx,
        proof=tree.proof(0),
        header=header,
        tree_size=2,
    )


class TestReceiptVerification:
    def test_genuine_receipt_verifies(self):
        receipt = build_receipt()
        result = receipt.verify(receipt.header, federation_key=KEY)
        assert result.ok and result.reason == "ok"
        assert result.payload["decision"] == "Permit"
        assert receipt.policy_stamp == (3, "fp-abc")
        # leaf + path + header + plaintext commitment
        assert result.hashes_verified == 3 + len(receipt.proof.path)

    def test_verifies_without_key_from_commitments_alone(self):
        receipt = build_receipt()
        result = receipt.verify(receipt.header)
        assert result.ok and result.payload is None

    def test_wrong_contract_rejected(self):
        receipt = build_receipt(contract="kvstore")
        assert receipt.verify(receipt.header).reason == "not-a-monitor-log-tx"

    def test_coordinate_mismatch_rejected(self):
        receipt = build_receipt()
        receipt.correlation_id = "someone-elses"
        assert receipt.verify(receipt.header).reason == "tx-coordinates-mismatch"

    def test_mutated_tx_args_rejected(self):
        receipt = build_receipt()
        receipt.tx = receipt.tx.replace(args={**receipt.tx.args, "payload_hash": "00" * 32})
        assert receipt.verify(receipt.header).reason == "leaf-commitment-mismatch"

    def test_mutated_proof_rejected(self):
        receipt = build_receipt()
        sibling, is_right = receipt.proof.path[0]
        path = (("ff" * 32, is_right),) + receipt.proof.path[1:]
        receipt.proof = dataclasses.replace(receipt.proof, path=path)
        assert receipt.verify(receipt.header).reason == "inclusion-proof-invalid"

    def test_mutated_header_rejected(self):
        receipt = build_receipt()
        trusted = receipt.header
        receipt.header = dataclasses.replace(trusted, timestamp=trusted.timestamp + 1.0)
        assert receipt.verify(trusted).reason == "header-not-on-verified-chain"

    def test_untrusted_header_rejected(self):
        receipt = build_receipt()
        assert receipt.verify(None).reason == "header-not-on-verified-chain"

    def test_tampered_ciphertext_rejected(self):
        receipt = build_receipt()
        blob = dict(receipt.tx.args["ciphertext"])
        blob["ciphertext"] = blob["ciphertext"][:-4] + "beef"
        # Rebuilding the tx would change the leaf; tamper the args dict in
        # place to model a receipt whose commitments are intact but whose
        # ciphertext was swapped.
        receipt.tx.args["ciphertext"] = blob
        result = receipt.verify(receipt.header, federation_key=KEY)
        assert result.reason in ("ciphertext-tampered", "leaf-commitment-mismatch")
        assert not result.ok

    def test_payload_commitment_mismatch_rejected(self):
        receipt = build_receipt(bad_payload_hash=True)
        result = receipt.verify(receipt.header, federation_key=KEY)
        assert result.reason == "payload-commitment-mismatch"

    def test_policy_stamp_mismatch_rejected(self):
        receipt = build_receipt(version=3, fingerprint="fp-abc",
                                tx_stamp=(4, "fp-abc"))
        result = receipt.verify(receipt.header, federation_key=KEY)
        assert result.reason == "policy-stamp-mismatch"

    def test_expected_stamp_pin(self):
        receipt = build_receipt(version=3, fingerprint="fp-abc")
        assert receipt.verify(receipt.header, federation_key=KEY, expected_stamp=(3, "fp-abc")).ok
        repinned = receipt.verify(receipt.header, federation_key=KEY, expected_stamp=(9, "fp-abc"))
        assert repinned.reason == "unexpected-policy-stamp"

    def test_json_round_trip_preserves_verification(self):
        receipt = build_receipt()
        revived = DecisionReceipt.from_dict(receipt.to_dict())
        assert revived.to_dict() == receipt.to_dict()
        assert revived.verify(receipt.header, federation_key=KEY).ok

    def test_malformed_dict_raises(self):
        with pytest.raises(ValidationError):
            DecisionReceipt.from_dict({"correlation_id": "x"})

    @given(
        corr=st.text(min_size=1, max_size=16),
        version=st.integers(min_value=0, max_value=99),
        fingerprint=st.text(alphabet="0123456789abcdef", min_size=1, max_size=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_receipt_json_round_trip_property(self, corr, version, fingerprint):
        receipt = build_receipt(corr=corr, version=version, fingerprint=fingerprint)
        revived = DecisionReceipt.from_dict(receipt.to_dict())
        assert revived.to_dict() == receipt.to_dict()
        result = revived.verify(receipt.header, federation_key=KEY)
        assert result.ok, result.reason


NODE = "bcnode@t"
NODE_KEY = SigningKey.generate(NODE.encode())


def make_chain_env(retarget_window=0):
    sim = Simulator()
    rng = SeededRng(11)
    network = Network(sim, rng)
    registry = ContractRegistry()
    registry.deploy(KeyValueContract())
    config = BlockchainConfig(
        chain_id="lc-t",
        difficulty_bits=8.0,
        target_block_interval=1.0,
        retarget_window=retarget_window,
        confirmations=2,
    )
    keys = {NODE: NODE_KEY.public}.get
    node = BlockchainNode(
        network, NODE, config, registry, rng, key_lookup=keys, signing_key=NODE_KEY, hashrate=1024.0
    )
    client = HeaderClient(network, "hc@t", config, NODE)
    sideband_link(network, client.address, NODE)
    return sim, node, client


def grow(chain, count, spacing=1.0):
    for _ in range(count):
        block = chain.create_block(
            NODE, [], timestamp=chain.head.header.timestamp + spacing, signing_key=NODE_KEY
        )
        chain.add_block(block)


def fork_block(chain, parent, timestamp):
    header = BlockHeader(
        height=parent.height + 1,
        prev_hash=parent.hash,
        merkle_root="",
        timestamp=timestamp,
        difficulty_bits=chain.expected_difficulty(parent.hash),
        miner=NODE,
    )
    block = Block(header=header, transactions=[])
    header.merkle_root = block.compute_merkle_root()
    block.sign(NODE_KEY)
    return block


class TestHeaderClient:
    def test_genesis_matches_server(self):
        _, node, client = make_chain_env()
        assert client.head.block_hash() == node.chain.head.hash

    def test_sync_tracks_chain(self):
        sim, node, client = make_chain_env()
        grow(node.chain, 5)
        client.sync()
        sim.run()
        assert client.height == 5
        assert client.head.block_hash() == node.chain.head.hash
        assert client.headers_validated == 5
        assert client.headers_rejected == 0

    def test_sync_pages_past_batch_size(self):
        sim, node, client = make_chain_env()
        grow(node.chain, HeaderClient.BATCH * 2 + 7)
        client.sync()
        sim.run()
        assert client.height == HeaderClient.BATCH * 2 + 7
        assert client.sync_rounds >= 3

    def test_follows_reorg_by_total_work(self):
        sim, node, client = make_chain_env()
        chain = node.chain
        genesis = chain.head
        a1 = fork_block(chain, genesis, 1.0)
        chain.add_block(a1)
        client.sync()
        sim.run()
        assert client.height == 1
        b1 = fork_block(chain, genesis, 1.5)
        chain.add_block(b1)
        b2 = fork_block(chain, b1, 2.5)
        chain.add_block(b2)
        assert chain.head.hash == b2.hash
        client.sync()
        sim.run()
        assert client.height == 2
        assert client.head.block_hash() == b2.hash
        assert client.reorgs == 1
        # The abandoned header is retained but is off the verified branch.
        assert client.header_for(a1.hash) is None
        assert client.confirmations_of(a1.hash) == 0
        assert client.confirmations_of(b1.hash) == 2

    def test_replays_the_full_nodes_retarget_schedule(self):
        # Blocks at half the target interval: every fourth one retargets.
        _, node, client = make_chain_env(retarget_window=4)
        chain = node.chain
        grow(chain, 9, spacing=0.5)
        served = [block.header for block in chain.main_chain()[1:]]
        assert len({header.difficulty_bits for header in served}) > 1
        assert client._ingest(served)
        assert client.height == 9 and client.headers_rejected == 0
        tip = client.head

        def successor(bits):
            return BlockHeader(
                height=tip.height + 1,
                prev_hash=tip.block_hash(),
                merkle_root="",
                timestamp=tip.timestamp + 0.5,
                difficulty_bits=bits,
                miner=NODE,
            )

        expected = chain.expected_difficulty(chain.head.hash)
        assert not client._ingest([successor(expected + 0.5)])
        assert client.headers_rejected == 1
        assert client._ingest([successor(expected)])

    def test_rejects_tampered_headers(self):
        sim, node, client = make_chain_env()
        grow(node.chain, 3)
        client.sync()
        sim.run()
        assert client.height == 3
        tip = client.head
        bogus = dataclasses.replace(
            tip, height=tip.height + 1, prev_hash="ff" * 32, timestamp=tip.timestamp + 1.0
        )
        assert not client._ingest([bogus])
        assert client.headers_rejected == 1
        assert client.height == 3


class TestLightClientsEndToEnd:
    def _build(self, **kwargs):
        return MonitoredFederation.build(healthcare_scenario(), **kwargs)

    def test_every_enforced_decision_gets_an_accepted_receipt(self):
        stack = self._build(light_clients=True)
        stack.start()
        stack.issue_requests(20)
        stack.run(until=60.0)
        per_tenant = {}
        for outcome in stack.outcomes:
            per_tenant.setdefault(outcome.request.origin_tenant, []).append(outcome)
        assert stack.outcomes
        for tenant, consumer in stack.light_clients.items():
            expected = len(per_tenant.get(tenant, []))
            assert consumer.receipts_accepted == expected
            assert consumer.receipts_rejected == 0
            assert consumer.outstanding == 0
            for corr, receipt in consumer.receipts.items():
                assert receipt.payload is not None
        stats = stack.drams.stats()
        assert set(stats["light_clients"]) == set(stack.light_clients)

    def test_light_clients_require_drams(self):
        with pytest.raises(ValidationError):
            self._build(with_drams=False, light_clients=True)
