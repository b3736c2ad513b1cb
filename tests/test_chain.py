"""Chain validation, fork choice, state replay, difficulty schedule."""

import copy
import gc

import pytest

from repro.blockchain.chain import Blockchain, ChainValidationError
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractEngine, ContractRegistry, KeyValueContract
from repro.blockchain.transaction import Transaction
from repro.common.errors import ValidationError
from repro.crypto.signatures import SigningKey

MINER = "miner-1"
CLIENT = "client-1"

MINER_KEY = SigningKey.generate(MINER.encode())
CLIENT_KEY = SigningKey.generate(CLIENT.encode())
KEYS = {MINER: MINER_KEY.public, CLIENT: CLIENT_KEY.public}


def lookup(name):
    return KEYS.get(name)


def kv_registry() -> ContractRegistry:
    registry = ContractRegistry()
    registry.deploy(KeyValueContract())
    return registry


class _Renamed(KeyValueContract):
    name = "kvstore-2"


def make_chain(registry=None, **config_overrides) -> Blockchain:
    if registry is None:
        registry = kv_registry()
    defaults = dict(chain_id="t", difficulty_bits=8.0, target_block_interval=1.0,
                    retarget_window=0, pow_mode="simulated", confirmations=2)
    defaults.update(config_overrides)
    return Blockchain(BlockchainConfig(**defaults), registry, key_lookup=lookup)


def put_tx(seq, key="k", value=1) -> Transaction:
    return Transaction(sender=CLIENT, contract="kvstore", method="put", seq=seq,
                       args={"key": key, "value": value}, tx_id=f"tx-{seq}-{key}").sign(CLIENT_KEY)


def extend(chain, txs=(), timestamp=None) -> object:
    block = chain.create_block(MINER, list(txs),
                               timestamp=timestamp if timestamp is not None
                               else chain.head.header.timestamp + 1.0,
                               signing_key=MINER_KEY)
    chain.add_block(block)
    return block


class TestBasicGrowth:
    def test_genesis_exists(self):
        chain = make_chain()
        assert chain.height == 0
        assert chain.block_count() == 1

    def test_blocks_extend_head(self):
        chain = make_chain()
        extend(chain)
        extend(chain)
        assert chain.height == 2

    def test_transactions_apply_to_state(self):
        chain = make_chain()
        extend(chain, [put_tx(1, "a", 10)])
        assert chain.state_of("kvstore")["data"] == {"a": 10}

    def test_tx_location_and_confirmations(self):
        chain = make_chain(confirmations=2)
        tx = put_tx(1)
        extend(chain, [tx])
        location = chain.tx_location(tx.tx_id)
        assert location is not None and location.height == 1
        assert chain.confirmations(tx.tx_id) == 1
        assert not chain.is_final(tx.tx_id)
        extend(chain)
        assert chain.confirmations(tx.tx_id) == 2
        assert chain.is_final(tx.tx_id)

    def test_duplicate_block_is_noop(self):
        chain = make_chain()
        block = extend(chain)
        assert chain.add_block(block) is False


class TestValidation:
    def test_unknown_parent_rejected(self):
        chain = make_chain()
        block = chain.create_block(MINER, [], 1.0, signing_key=MINER_KEY)
        block.header.prev_hash = "ff" * 32
        block.header.merkle_root = block.compute_merkle_root()
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_wrong_merkle_root_rejected(self):
        chain = make_chain()
        block = chain.create_block(MINER, [put_tx(1)], 1.0, signing_key=MINER_KEY)
        block.transactions = []
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_decreasing_timestamp_rejected(self):
        chain = make_chain()
        extend(chain, timestamp=10.0)
        block = chain.create_block(MINER, [], timestamp=5.0, signing_key=MINER_KEY)
        block.header.timestamp = 5.0  # create_block clamps; force violation
        block.header.merkle_root = block.compute_merkle_root()
        block.sign(MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_unknown_sender_rejected(self):
        chain = make_chain()
        rogue_key = SigningKey.generate(b"rogue")
        tx = Transaction(sender="rogue", contract="kvstore", method="put",
                         args={"key": "a", "value": 1}, seq=1, tx_id="rogue-1").sign(rogue_key)
        block = chain.create_block(MINER, [tx], 1.0, signing_key=MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_bad_tx_signature_rejected(self):
        chain = make_chain()
        tx = put_tx(1)
        # Tamper after signing (copy-on-write keeps the stale signature).
        tx = tx.replace(args={**tx.args, "value": 999})
        block = chain.create_block(MINER, [tx], 1.0, signing_key=MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_unsigned_miner_rejected(self):
        chain = make_chain()
        block = chain.create_block(MINER, [], 1.0, signing_key=None)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_chain_without_key_lookup_checks_no_signature(self):
        chain = Blockchain(make_chain().config, kv_registry())
        rogue = Transaction(sender="rogue", contract="kvstore", method="put",
                            args={"key": "a", "value": 1}, seq=1, tx_id="rogue-1")
        assert chain.validate_transaction(rogue)
        chain.add_block(chain.create_block(MINER, [rogue], 1.0, signing_key=None))
        assert chain.tx_location(rogue.tx_id).height == 1
        assert chain.state_of("kvstore")["data"] == {"a": 1}

    def test_duplicate_tx_in_block_rejected(self):
        chain = make_chain()
        tx = put_tx(1)
        block = chain.create_block(MINER, [tx, tx], 1.0, signing_key=MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_too_many_txs_rejected(self):
        chain = make_chain(max_block_txs=1)
        txs = [put_tx(1, "a"), put_tx(2, "b")]
        block = chain.create_block(MINER, txs, 1.0, signing_key=MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_oversized_body_rejected(self):
        chain = make_chain(max_block_bytes=100)
        block = chain.create_block(MINER, [put_tx(1, "k", "x" * 500)], 1.0,
                                   signing_key=MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)

    def test_rejected_blocks_counted(self):
        chain = make_chain()
        block = chain.create_block(MINER, [], 1.0)  # unsigned
        with pytest.raises(ChainValidationError):
            chain.add_block(block)
        assert chain.rejected_blocks == 1

    def test_real_pow_mode_checks_hash(self):
        chain = make_chain(pow_mode="real", difficulty_bits=8.0)
        block = chain.create_block(MINER, [], 1.0, signing_key=MINER_KEY)
        assert chain.add_block(block)  # ground nonce passes
        bad = chain.create_block(MINER, [], 2.0, signing_key=MINER_KEY)
        bad.header.nonce = 0
        while int(bad.hash, 16) < (1 << 248):
            bad.header.nonce += 1  # find a nonce that fails the target
        bad.sign(MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(bad)


class TestReplayProtection:
    def test_same_seq_applied_once(self):
        chain = make_chain()
        extend(chain, [put_tx(1, "a", 1)])
        # A different tx with the same seq is skipped at application time.
        duplicate_seq = put_tx(1, "b", 2)
        extend(chain, [duplicate_seq])
        assert "b" not in chain.state_of("kvstore")["data"]

    def test_included_tx_not_revalidated(self):
        chain = make_chain()
        tx = put_tx(1)
        extend(chain, [tx])
        assert not chain.validate_transaction(tx)

    def test_out_of_order_seqs_all_apply(self):
        chain = make_chain()
        extend(chain, [put_tx(5, "e", 5)])
        extend(chain, [put_tx(2, "b", 2)])
        data = chain.state_of("kvstore")["data"]
        assert data == {"e": 5, "b": 2}


class TestForkChoice:
    def fork(self, chain, parent, txs=(), timestamp=None, miner=MINER):
        """Build a block on an arbitrary parent (not just the head)."""
        from repro.blockchain.block import Block, BlockHeader

        header = BlockHeader(
            height=parent.height + 1,
            prev_hash=parent.hash,
            merkle_root="",
            timestamp=timestamp if timestamp is not None
            else parent.header.timestamp + 1.0,
            difficulty_bits=chain.expected_difficulty(parent.hash),
            miner=miner,
        )
        block = Block(header=header, transactions=list(txs))
        header.merkle_root = block.compute_merkle_root()
        block.sign(MINER_KEY)
        return block

    def test_longer_branch_wins(self):
        chain = make_chain()
        genesis = chain.head
        a1 = self.fork(chain, genesis)
        chain.add_block(a1)
        b1 = self.fork(chain, genesis, timestamp=1.5)
        chain.add_block(b1)
        assert chain.head.hash == min(a1.hash, b1.hash)  # tie → lowest hash
        b2 = self.fork(chain, b1)
        chain.add_block(b2)
        assert chain.head.hash == b2.hash

    def test_reorg_replays_state(self):
        chain = make_chain()
        genesis = chain.head
        a1 = self.fork(chain, genesis, txs=[put_tx(1, "a", 1)])
        chain.add_block(a1)
        assert chain.state_of("kvstore")["data"] == {"a": 1}
        b1 = self.fork(chain, genesis, txs=[put_tx(1, "b", 2)], timestamp=1.5)
        chain.add_block(b1)
        b2 = self.fork(chain, b1, txs=[put_tx(2, "c", 3)])
        chain.add_block(b2)
        assert chain.head.hash == b2.hash
        assert chain.reorgs >= 1
        data = chain.state_of("kvstore")["data"]
        assert data == {"b": 2, "c": 3}

    def test_reorg_moves_tx_locations(self):
        chain = make_chain()
        genesis = chain.head
        tx = put_tx(1, "a", 1)
        a1 = self.fork(chain, genesis, txs=[tx])
        chain.add_block(a1)
        b1 = self.fork(chain, genesis, timestamp=1.5)
        chain.add_block(b1)
        b2 = self.fork(chain, b1)
        chain.add_block(b2)
        if chain.head.hash == b2.hash:
            assert chain.tx_location(tx.tx_id) is None

    def test_events_fire_on_newly_applied_blocks(self):
        chain = make_chain()
        seen = []
        chain.subscribe_events(lambda event, block_hash: seen.append(event.name))
        extend(chain, [put_tx(1)])
        assert seen == ["Put"]

    def test_reorg_surfaces_orphaned_txs(self):
        chain = make_chain()
        genesis = chain.head
        tx = put_tx(1, "orphan-me", 1)
        a1 = self.fork(chain, genesis, txs=[tx])
        chain.add_block(a1)
        assert chain.tx_location(tx.tx_id) is not None
        b1 = self.fork(chain, genesis, timestamp=1.5)
        chain.add_block(b1)
        b2 = self.fork(chain, b1)
        chain.add_block(b2)
        assert chain.head.hash == b2.hash
        orphans = chain.take_orphaned_txs()
        assert [o.tx_id for o in orphans] == [tx.tx_id]
        # Draining is one-shot.
        assert chain.take_orphaned_txs() == []

    def test_orphaned_tx_already_on_winning_branch_not_surfaced(self):
        chain = make_chain()
        genesis = chain.head
        tx = put_tx(1, "shared", 1)
        a1 = self.fork(chain, genesis, txs=[tx])
        chain.add_block(a1)
        b1 = self.fork(chain, genesis, txs=[tx], timestamp=1.5)
        chain.add_block(b1)
        b2 = self.fork(chain, b1)
        chain.add_block(b2)
        if chain.head.hash == b2.hash:
            assert chain.take_orphaned_txs() == []
            assert chain.tx_location(tx.tx_id) is not None


class TestConfirmationsAcrossReorgs:
    fork = TestForkChoice.fork

    def test_orphaned_tx_reports_zero_confirmations(self):
        chain = make_chain()
        genesis = chain.head
        tx = put_tx(1, "orphan-me", 1)
        a1 = self.fork(chain, genesis, txs=[tx])
        chain.add_block(a1)
        assert chain.confirmations(tx.tx_id) == 1
        b1 = self.fork(chain, genesis, timestamp=1.5)
        chain.add_block(b1)
        b2 = self.fork(chain, b1)
        chain.add_block(b2)
        assert chain.head.hash == b2.hash
        # The tx's block is off the applied branch now: no confirmations,
        # never final — regardless of any stale height bookkeeping.
        assert chain.confirmations(tx.tx_id) == 0
        assert not chain.is_final(tx.tx_id)

    def test_confirmations_consistent_for_mid_reorg_subscribers(self):
        chain = make_chain(confirmations=1)
        genesis = chain.head
        shared = put_tx(1, "shared", 1)
        a1 = self.fork(chain, genesis, txs=[shared])
        chain.add_block(a1)
        seen = []

        def on_event(event, block_hash):
            # Fires during replay of the winning branch; confirmations
            # must reflect the branch as applied so far, not the stale
            # pre-reorg head height.
            seen.append((event.name, chain.confirmations(shared.tx_id)))

        chain.subscribe_events(on_event)
        b1 = self.fork(chain, genesis, txs=[shared], timestamp=1.5)
        chain.add_block(b1)
        b2 = self.fork(chain, b1, txs=[put_tx(2, "later", 2)])
        chain.add_block(b2)
        assert chain.head.hash == b2.hash
        # The shared tx sat at height 1 when its Put replayed (1 conf),
        # and the height-2 block's event saw it one deeper.
        assert ("Put", 1) in seen
        assert ("Put", 2) in seen
        assert chain.confirmations(shared.tx_id) == 2


class TestInclusionProofs:
    def test_proof_round_trip(self):
        chain = make_chain()
        txs = [put_tx(i, f"k{i}", i) for i in range(1, 6)]
        extend(chain, txs)
        for tx in txs:
            proof, tree_size, header = (chain.inclusion_proof(tx.tx_id),
                                        len(txs), chain.head.header)
            assert proof is not None
            assert proof.leaf == tx.content_hash()
            assert proof.verify(header.merkle_root, tree_size=tree_size)

    def test_unknown_tx_has_no_proof(self):
        chain = make_chain()
        extend(chain, [put_tx(1)])
        assert chain.inclusion_proof("tx-nope") is None

    def test_orphaned_tx_has_no_proof(self):
        chain = make_chain()
        genesis = chain.head
        tx = put_tx(1, "orphan-me", 1)
        fork = TestForkChoice.fork.__get__(self)
        chain.add_block(fork(chain, genesis, txs=[tx]))
        b1 = fork(chain, genesis, timestamp=1.5)
        chain.add_block(b1)
        b2 = fork(chain, b1)
        chain.add_block(b2)
        assert chain.head.hash == b2.hash
        assert chain.tx_location(tx.tx_id) is None
        assert chain.inclusion_proof(tx.tx_id) is None


class TestHeadersAfter:
    def test_serves_headers_above_locator(self):
        chain = make_chain()
        blocks = [extend(chain) for _ in range(5)]
        headers = chain.headers_after([blocks[1].hash], limit=10)
        assert [h.height for h in headers] == [3, 4, 5]

    def test_unknown_locator_falls_back_to_genesis(self):
        chain = make_chain()
        extend(chain)
        extend(chain)
        headers = chain.headers_after(["ff" * 32], limit=10)
        assert [h.height for h in headers] == [1, 2]

    def test_limit_caps_batch(self):
        chain = make_chain()
        for _ in range(6):
            extend(chain)
        headers = chain.headers_after([], limit=2)
        assert [h.height for h in headers] == [1, 2]

    def test_first_recognised_locator_hash_wins(self):
        chain = make_chain()
        blocks = [extend(chain) for _ in range(4)]
        headers = chain.headers_after(["not-a-hash", blocks[2].hash, blocks[0].hash],
                                      limit=10)
        assert [h.height for h in headers] == [4]


class TestDifficultySchedule:
    def test_no_retarget_when_window_zero(self):
        chain = make_chain(retarget_window=0)
        for _ in range(5):
            extend(chain)
        assert chain.head.header.difficulty_bits == 8.0

    def test_retarget_raises_difficulty_for_fast_blocks(self):
        chain = make_chain(retarget_window=4, target_block_interval=10.0)
        # Blocks arrive 1s apart: 10x too fast.
        for _ in range(4):
            extend(chain)
        assert chain.head.header.difficulty_bits > 8.0

    def test_retarget_lowers_difficulty_for_slow_blocks(self):
        chain = make_chain(retarget_window=4, target_block_interval=0.1)
        for _ in range(4):
            extend(chain)
        assert chain.head.header.difficulty_bits < 8.0

    def test_wrong_difficulty_rejected(self):
        chain = make_chain()
        block = chain.create_block(MINER, [], 1.0, signing_key=MINER_KEY)
        block.header.difficulty_bits = 9.0
        block.header.merkle_root = block.compute_merkle_root()
        block.sign(MINER_KEY)
        with pytest.raises(ChainValidationError):
            chain.add_block(block)


class TestSnapshots:
    fork = TestForkChoice.fork

    def test_deep_reorg_uses_snapshots(self):
        chain = make_chain()
        # Build a long main chain crossing the snapshot interval.
        for i in range(1, 30):
            extend(chain, [put_tx(i, f"k{i}", i)])
        assert chain.height == 29
        assert chain.state_of("kvstore")["writes"] == 29
        # Values survived the snapshot/pruning machinery.
        assert chain.state_of("kvstore")["data"]["k7"] == 7

    def test_replicas_take_each_checkpoint_once(self, monkeypatch):
        dumps = []
        dump_state = ContractEngine.dump_state
        monkeypatch.setattr(
            ContractEngine, "dump_state", lambda engine: dumps.append(engine) or dump_state(engine)
        )
        registry = kv_registry()
        replicas = [make_chain(registry) for _ in range(4)]
        for i in range(1, 61):
            block = extend(replicas[0], [put_tx(i, f"k{i % 5}", i)])
            for replica in replicas[1:]:
                replica.add_block(block)
        checkpointed = set(replicas[0]._snapshots)
        assert len(checkpointed) == 3  # genesis and the states at heights 24 and 49
        assert len(dumps) == len(checkpointed)
        for replica in replicas[1:]:
            assert replica.head.hash == replicas[0].head.hash
            assert set(replica._snapshots) == checkpointed
            assert all(replica._snapshots[h] is replicas[0]._snapshots[h] for h in checkpointed)

    def test_restore_from_a_shared_checkpoint_matches_an_unshared_replica(self):
        registry = kv_registry()
        taker, reuser = make_chain(registry), make_chain(registry)
        unshared = make_chain()
        seen = {id(reuser): [], id(unshared): []}
        for replica in (reuser, unshared):
            log = seen[id(replica)]
            replica.subscribe_events(
                lambda event, block_hash, log=log: log.append((event, block_hash))
            )
        main = []
        for i in range(1, 31):
            main.append(extend(taker, [put_tx(i, f"k{i % 7}", i)]))
            reuser.add_block(main[-1])
            unshared.add_block(main[-1])
        checkpoint_hash = main[23].hash
        frozen = copy.deepcopy(taker._snapshots[checkpoint_hash])
        # A longer branch forking above the height-24 checkpoint: every
        # replica restores that checkpoint, taken by ``taker``, and replays.
        parent = main[26]
        for j in range(4):
            parent = self.fork(taker, parent, txs=[put_tx(100 + j, "fork", j)])
            for replica in (taker, reuser, unshared):
                replica.add_block(parent)
        assert taker.head.hash == reuser.head.hash == unshared.head.hash == parent.hash
        assert taker.reorgs == reuser.reorgs == unshared.reorgs == 1
        assert reuser._snapshots[checkpoint_hash] is taker._snapshots[checkpoint_hash]
        assert taker._snapshots[checkpoint_hash] == frozen
        assert reuser.state_of("kvstore") == unshared.state_of("kvstore")
        assert list(reuser._tx_locations.items()) == list(unshared._tx_locations.items())
        assert seen[id(reuser)] == seen[id(unshared)]
        assert len(seen[id(reuser)]) == 30 + 3 + 4  # first pass, replay, fork branch

    def test_checkpoint_outlives_later_blocks_unchanged(self):
        registry = kv_registry()
        first, second = make_chain(registry), make_chain(registry)
        for i in range(1, 26):
            block = extend(first, [put_tx(i, "k", i)])
            second.add_block(block)
        checkpoint = first._snapshots[first.main_chain()[24].hash]
        frozen = copy.deepcopy(checkpoint)
        for i in range(26, 56):
            block = extend(first, [put_tx(i, "k", i)])
            second.add_block(block)
        assert second.height == 55
        assert checkpoint == frozen

    def test_extension_never_walks_the_branch(self, monkeypatch):
        def walk(chain, tip_hash):
            raise AssertionError("a head extension walked the branch")

        monkeypatch.setattr(Blockchain, "_branch_of", walk)
        chain = make_chain()
        for i in range(1, 40):
            extend(chain, [put_tx(i, f"k{i}", i)])
        assert [block.height for block in chain.main_chain()] == list(range(40))
        assert chain.state_of("kvstore")["writes"] == 39

    def test_deploy_refused_while_a_replica_holds_checkpoints(self):
        registry = kv_registry()
        chain = make_chain(registry)
        with pytest.raises(ValidationError):
            registry.deploy(_Renamed())
        del chain
        gc.collect()
        registry.deploy(_Renamed())
        assert registry.names() == ["kvstore", "kvstore-2"]
