"""Transactions, blocks, mempool and the contract engine."""

import copy

import pytest

from repro.blockchain.block import Block, BlockHeader, make_genesis
from repro.blockchain.contracts import (
    ContractContext,
    ContractEngine,
    ContractError,
    ContractRegistry,
    KeyValueContract,
    _tree_copy,
)
from repro.blockchain.mempool import Mempool
from repro.blockchain.transaction import Transaction
from repro.common.errors import ValidationError
from repro.crypto.signatures import SigningKey


def make_tx(seq=1, sender="alice", key=None, **args) -> Transaction:
    tx = Transaction(sender=sender, contract="kvstore", method="put",
                     args=args or {"key": "k", "value": 1}, seq=seq, tx_id=f"{sender}-{seq}")
    if key is not None:
        tx.sign(key)
    return tx


class TestTransaction:
    def test_sign_and_verify(self):
        key = SigningKey.generate(b"alice")
        tx = make_tx(key=key)
        assert tx.verify(key.public)

    def test_unsigned_fails_verification(self):
        key = SigningKey.generate(b"alice")
        assert not make_tx().verify(key.public)

    def test_tampered_args_fail_verification(self):
        key = SigningKey.generate(b"alice")
        tx = make_tx(key=key)
        tampered = tx.replace(args={**tx.args, "value": 999})
        assert not tampered.verify(key.public)
        # The original is untouched and still verifies.
        assert tx.verify(key.public)

    def test_content_hash_excludes_submission_time(self):
        tx = make_tx()
        before = tx.content_hash()
        tx.submitted_at = 123.0
        assert tx.content_hash() == before

    def test_dict_roundtrip_preserves_signature(self):
        key = SigningKey.generate(b"alice")
        tx = make_tx(key=key)
        restored = Transaction.from_dict(tx.to_dict())
        assert restored.verify(key.public)
        assert restored.content_hash() == tx.content_hash()

    def test_malformed_dict_raises(self):
        with pytest.raises(ValidationError):
            Transaction.from_dict({"sender": "x"})

    def test_size_includes_signature_overhead(self):
        key = SigningKey.generate(b"alice")
        unsigned = make_tx()
        signed = make_tx(key=key)
        assert signed.size_bytes() > unsigned.size_bytes()


class TestBlock:
    def make_block(self, txs=(), nonce=0) -> Block:
        header = BlockHeader(height=1, prev_hash="00" * 32, merkle_root="",
                             timestamp=1.0, difficulty_bits=8.0, miner="m",
                             nonce=nonce)
        block = Block(header=header, transactions=list(txs))
        header.merkle_root = block.compute_merkle_root()
        return block

    def test_hash_changes_with_nonce(self):
        assert self.make_block(nonce=0).hash != self.make_block(nonce=1).hash

    def test_hash_survives_serialization_roundtrip(self):
        key = SigningKey.generate(b"m")
        block = self.make_block(txs=[make_tx(key=key)])
        block.sign(key)
        restored = Block.from_dict(block.to_dict())
        assert restored.hash == block.hash
        assert restored.verify_miner_signature(key.public)

    def test_merkle_root_tracks_transactions(self):
        key = SigningKey.generate(b"alice")
        a = self.make_block(txs=[make_tx(seq=1, key=key)])
        b = self.make_block(txs=[make_tx(seq=2, key=key)])
        assert a.header.merkle_root != b.header.merkle_root

    def test_miner_signature_binds_block_hash(self):
        key = SigningKey.generate(b"m")
        block = self.make_block()
        block.sign(key)
        block.header.nonce += 1  # changes the hash
        assert not block.verify_miner_signature(key.public)

    def test_genesis_is_deterministic(self):
        a = make_genesis("chain", "digest", 8.0)
        b = make_genesis("chain", "digest", 8.0)
        assert a.hash == b.hash

    def test_genesis_differs_per_chain_id(self):
        assert (make_genesis("one", "d", 8.0).hash
                != make_genesis("two", "d", 8.0).hash)

    def test_body_size(self):
        key = SigningKey.generate(b"alice")
        assert self.make_block().body_size_bytes() == 0
        assert self.make_block(txs=[make_tx(key=key)]).body_size_bytes() > 0


class TestMempool:
    def test_fifo_order(self):
        pool = Mempool()
        txs = [make_tx(seq=i) for i in range(5)]
        for tx in txs:
            assert pool.add(tx)
        assert pool.peek(10, 10**9) == txs

    def test_duplicate_rejected(self):
        pool = Mempool()
        tx = make_tx()
        assert pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1

    def test_capacity_limit(self):
        pool = Mempool(max_size=2)
        assert pool.add(make_tx(seq=1))
        assert pool.add(make_tx(seq=2))
        assert not pool.add(make_tx(seq=3))

    def test_peek_respects_tx_count(self):
        pool = Mempool()
        for i in range(5):
            pool.add(make_tx(seq=i))
        assert len(pool.peek(3, 10**9)) == 3

    def test_peek_respects_byte_budget(self):
        pool = Mempool()
        for i in range(5):
            pool.add(make_tx(seq=i))
        one_size = pool.pending()[0].size_bytes()
        assert len(pool.peek(10, one_size * 2 + 1)) == 2

    def test_peek_excludes(self):
        pool = Mempool()
        txs = [make_tx(seq=i) for i in range(3)]
        for tx in txs:
            pool.add(tx)
        selected = pool.peek(10, 10**9, exclude={txs[0].tx_id})
        assert txs[0] not in selected

    def test_remove_all(self):
        pool = Mempool()
        txs = [make_tx(seq=i) for i in range(3)]
        for tx in txs:
            pool.add(tx)
        pool.remove_all([txs[0].tx_id, txs[2].tx_id])
        assert pool.pending() == [txs[1]]

    def test_contains(self):
        pool = Mempool()
        tx = make_tx()
        pool.add(tx)
        assert tx.tx_id in pool


class TestContractEngine:
    def engine(self) -> ContractEngine:
        registry = ContractRegistry()
        registry.deploy(KeyValueContract())
        return ContractEngine(registry)

    def ctx(self, height=1, tx_id="tx-1", sender="alice") -> ContractContext:
        return ContractContext(block_height=height, block_timestamp=1.0,
                               sender=sender, tx_id=tx_id)

    def test_put_get(self):
        engine = self.engine()
        receipt = engine.execute("kvstore", "put", {"key": "a", "value": 1},
                                 self.ctx())
        assert receipt.ok
        assert engine.state_of("kvstore")["data"] == {"a": 1}

    def test_events_emitted(self):
        engine = self.engine()
        receipt = engine.execute("kvstore", "put", {"key": "a", "value": 1},
                                 self.ctx())
        assert len(receipt.events) == 1
        assert receipt.events[0].name == "Put"
        assert receipt.events[0].payload["by"] == "alice"

    def test_failed_invocation_reverts_state(self):
        engine = self.engine()
        receipt = engine.execute("kvstore", "delete", {"key": "ghost"}, self.ctx())
        assert not receipt.ok
        assert "no such key" in receipt.error
        assert engine.state_of("kvstore")["writes"] == 0

    def test_partial_mutation_reverted_on_error(self):
        registry = ContractRegistry()

        class Flaky(KeyValueContract):
            name = "flaky"
            # Mutates before raising, so it must opt out of the engine's
            # in-place fast path to keep the revert guarantee.
            checked_invoke = False

            def invoke(self, state, method, args, ctx, emit):
                if method == "boom":
                    state["data"]["partial"] = True
                    raise ContractError("exploded after mutation")
                return super().invoke(state, method, args, ctx, emit)

        registry.deploy(Flaky())
        engine = ContractEngine(registry)
        receipt = engine.execute("flaky", "boom", {}, self.ctx())
        assert not receipt.ok
        assert "partial" not in engine.state_of("flaky")["data"]

    def test_unknown_contract_raises(self):
        with pytest.raises(ValidationError):
            self.engine().execute("ghost", "put", {}, self.ctx())

    def test_unknown_method_reverts(self):
        receipt = self.engine().execute("kvstore", "explode", {}, self.ctx())
        assert not receipt.ok

    def test_gas_scales_with_args(self):
        engine = self.engine()
        small = engine.execute("kvstore", "put", {"key": "a", "value": "x"},
                               self.ctx(tx_id="t1"))
        large = engine.execute("kvstore", "put", {"key": "b", "value": "x" * 500},
                               self.ctx(tx_id="t2"))
        assert large.gas_used > small.gas_used

    def test_dump_and_load_state(self):
        engine = self.engine()
        engine.execute("kvstore", "put", {"key": "a", "value": 1}, self.ctx())
        snapshot = engine.dump_state()
        engine.execute("kvstore", "put", {"key": "b", "value": 2},
                       self.ctx(tx_id="t2"))
        engine.load_state(snapshot)
        assert engine.state_of("kvstore")["data"] == {"a": 1}

    def test_tree_copy_equals_deepcopy_and_shares_no_container(self):
        tree = {"records": {"c1": {"entries": {"pep-in": {"height": 3, "ok": True}},
                                   "alerted": {}, "score": 0.5, "note": None}},
                "pending": ["c1", ["nested", 2]], "stats": {"logs": 1}}
        copied = _tree_copy(tree)
        assert copied == copy.deepcopy(tree)
        assert list(copied) == list(tree)

        def containers(node):
            if isinstance(node, dict):
                yield node
                for item in node.values():
                    yield from containers(item)
            elif isinstance(node, list):
                yield node
                for item in node:
                    yield from containers(item)

        originals = {id(node) for node in containers(tree)}
        assert originals.isdisjoint(id(node) for node in containers(copied))

    def test_tree_copy_round_trips_non_json_values(self):
        tree = {"pair": ([1, 2], [3]), "tags": {"a", "b"}}
        copied = _tree_copy(tree)
        assert copied == tree
        assert copied["pair"][0] is not tree["pair"][0]
        assert copied["tags"] is not tree["tags"]

    def test_duplicate_deploy_rejected(self):
        registry = ContractRegistry()
        registry.deploy(KeyValueContract())
        with pytest.raises(ValidationError):
            registry.deploy(KeyValueContract())
