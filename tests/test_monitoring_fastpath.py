"""Differential tests for the monitoring plane's memoised and precomputed paths.

Cached canonical encodings, once-per-node verification sets, in-place
contract execution, fixed-base exponentiation and the compiled oracle must
all be *decision-preserving*: hashes, signatures, sizes, receipts and
decisions are bit-identical to the definitional expression each one
shortcuts — ``canonical_bytes(...)``, ``pow(b, e, p)``, ``MerkleTree(...).root``,
a nonce search over ``bytes_for_nonce``, ``evaluate_document``, a cold chain
replica, a contract without ``checked_invoke``.  Hypothesis drives random
content through both sides, including mutation-after-cache (copy-on-write)
and reorg replay.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import Blockchain
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import (
    ContractContext,
    ContractEngine,
    ContractRegistry,
    KeyValueContract,
)
from repro.blockchain.mempool import Mempool
from repro.blockchain.pow import grind_nonce_parts, meets_target
from repro.blockchain.transaction import SIGNATURE_OVERHEAD_BYTES, Transaction
from repro.common.serialization import canonical_bytes
from repro.crypto import signatures as schnorr
from repro.crypto.hashing import hash_value, sha256_hex
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import Signature, SigningKey
from repro.drams.logs import EntryType, LogEntry
from tests.strategies import (
    FASTPATH_KEY as KEY,
    args_dicts,
    headers,
    json_values,
    transactions,
)


def signed_content(tx, **changes):
    """The dict a transaction's signature, content hash and size are defined over."""
    content = {
        "sender": tx.sender,
        "contract": tx.contract,
        "method": tx.method,
        "args": tx.args,
        "seq": tx.seq,
        "tx_id": tx.tx_id,
    }
    content.update(changes)
    return content


def definitional_size(tx):
    overhead = SIGNATURE_OVERHEAD_BYTES if tx.signature is not None else 0
    return len(canonical_bytes(signed_content(tx))) + overhead


class TestTransactionEncodingCache:
    @given(transactions())
    @settings(max_examples=120, deadline=None)
    def test_cached_equals_recompute(self, tx):
        encoded = canonical_bytes(signed_content(tx))
        expected = (encoded, sha256_hex(encoded), definitional_size(tx))
        for _ in range(2):  # cold, then served from the memo
            assert (tx.signing_payload(), tx.content_hash(), tx.size_bytes()) == expected

    @given(transactions())
    @settings(max_examples=60, deadline=None)
    def test_content_hash_matches_definitional_form(self, tx):
        assert tx.content_hash() == hash_value(signed_content(tx))

    @given(transactions(signed=st.just(True)), args_dicts)
    @settings(max_examples=60, deadline=None)
    def test_mutation_after_cache_via_replace(self, tx, new_args):
        before_payload = tx.signing_payload()
        before_hash = tx.content_hash()
        mutated = tx.replace(args=new_args)
        # The original's caches are untouched and its signature still holds.
        assert tx.signing_payload() == before_payload
        assert tx.content_hash() == before_hash
        assert tx.verify(KEY.public)
        # The copy re-encodes from scratch.
        assert mutated.signing_payload() == canonical_bytes(signed_content(tx, args=new_args))
        if new_args != tx.args:
            assert mutated.content_hash() != before_hash
            assert not mutated.verify(KEY.public)

    def test_replace_rejects_unknown_fields(self):
        tx = Transaction(sender="a", contract="c", method="m", args={}, seq=1, tx_id="tx-1")
        with pytest.raises(Exception):
            tx.replace(nonsense=1)


def definitional_hash(header):
    return sha256_hex(header.bytes_for_nonce(header.nonce))


class TestHeaderEncodingCache:
    @given(headers(), st.integers(0, 2**40))
    @settings(max_examples=120, deadline=None)
    def test_nonce_parts_reproduce_bytes_for_nonce(self, header, nonce):
        prefix, suffix = header.nonce_parts()
        assert prefix + str(nonce).encode() + suffix == header.bytes_for_nonce(nonce)

    @given(headers())
    @settings(max_examples=120, deadline=None)
    def test_cached_hash_equals_recompute(self, header):
        expected = definitional_hash(header)
        assert header.block_hash() == expected
        assert header.block_hash() == expected  # memo hit
        assert BlockHeader.from_dict(header.to_dict()).block_hash() == expected

    @given(headers(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_in_place_header_mutation_invalidates_memo(self, header, nonce):
        header.block_hash()  # prime the memo
        header.nonce = nonce
        after_nonce = header.block_hash()
        assert after_nonce == definitional_hash(header)
        header.merkle_root = header.merkle_root + "ff"
        after_root = header.block_hash()
        # The memoised hashes track every in-place edit exactly.
        assert after_root == definitional_hash(header)
        assert after_nonce != after_root
        header.merkle_root = header.merkle_root[:-2]
        assert header.block_hash() == after_nonce


class TestPowGrinding:
    @given(headers())
    @settings(max_examples=30, deadline=None)
    def test_parts_grinding_matches_generic_grinding(self, header):
        nonce = 0
        while not meets_target(sha256_hex(header.bytes_for_nonce(nonce)), 6.0):
            nonce += 1
        generic = (nonce, sha256_hex(header.bytes_for_nonce(nonce)), nonce + 1)
        prefix, suffix = header.nonce_parts()
        parts = grind_nonce_parts(prefix, suffix, difficulty_bits=6.0, max_attempts=5_000)
        assert generic == parts


class TestMerkleAndLogs:
    @given(st.lists(st.text(max_size=20), max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_root_of_matches_tree_root(self, items):
        assert MerkleTree.root_of(items) == MerkleTree(items).root

    @given(args_dicts)
    @settings(max_examples=60, deadline=None)
    def test_log_entry_cached_payload_and_hash(self, payload):
        entry = LogEntry(
            correlation_id="c",
            entry_type=EntryType.PEP_IN,
            tenant="t",
            component="x",
            payload=payload,
            observed_at=0.0,
        )
        for _ in range(2):  # cold, then served from the memo
            assert entry.canonical_payload() == canonical_bytes(payload)
            assert entry.payload_hash() == hash_value(payload)


def pow_verify(key, message, signature):
    """Schnorr verification as the scheme defines it, through the builtin ``pow``."""
    p, q, g = schnorr._P, schnorr._Q, schnorr._G
    if not (0 < signature.s < q) or signature.e <= 0:
        return False
    r = pow(g, signature.s, p) * pow(key.y, signature.e, p) % p
    return schnorr._hash_to_int(hex(r).encode(), message) % q == signature.e


def pow_sign(key, message):
    """Schnorr signing as the scheme defines it, through the builtin ``pow``."""
    p, q, g = schnorr._P, schnorr._Q, schnorr._G
    k = key._nonce(message)
    e = schnorr._hash_to_int(hex(pow(g, k, p)).encode(), message) % q or 1
    return Signature(e=e, s=(k - key._x * e) % q)


class TestSignatureFastPath:
    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_fixed_base_sign_verify_matches_pow(self, message, seed):
        key = SigningKey.generate(seed)
        signature = key.sign(message)
        assert signature == pow_sign(key, message)
        assert key.public.verify(message, signature)
        assert pow_verify(key.public, message, signature)
        assert schnorr._g_pow(signature.s) == pow(schnorr._G, signature.s, schnorr._P)
        assert key.public._y_pow(signature.e) == pow(key.public.y, signature.e, schnorr._P)

    @given(st.integers(2**200, 2**400), st.integers(1, 2**40))
    @settings(max_examples=30, deadline=None)
    def test_oversized_forged_exponents_fall_back(self, e, s):
        # Forged signatures may carry exponents far beyond the table range;
        # the tables must agree with ``pow`` there too (normally: reject).
        sig = Signature(e=e, s=s)
        assert KEY.public._y_pow(e) == pow(KEY.public.y, e, schnorr._P)
        assert schnorr._g_pow(e) == pow(schnorr._G, e, schnorr._P)
        assert KEY.public.verify(b"msg", sig) == pow_verify(KEY.public, b"msg", sig)


class TestMempoolSizes:
    @given(
        st.lists(transactions(signed=st.just(True)), max_size=10),
        st.integers(1, 10),
        st.integers(50, 5_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_peek_with_cached_sizes_matches_recompute(self, txs, max_txs, max_bytes):
        pool = Mempool()
        for tx in txs:
            pool.add(tx)
        # FIFO selection re-deriving every size from the canonical encoding.
        expected, total = [], 0
        for tx in pool.pending():
            size = definitional_size(tx)
            if len(expected) >= max_txs or total + size > max_bytes:
                break
            expected.append(tx.tx_id)
            total += size
        assert [tx.tx_id for tx in pool.peek(max_txs, max_bytes)] == expected


class UncheckedKeyValueContract(KeyValueContract):
    """Same code without the ``checked_invoke`` promise: runs on a deep copy."""

    checked_invoke = False


class TestEngineInPlace:
    ops = st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete", "explode"]),
            st.text(min_size=1, max_size=4),
            json_values,
        ),
        max_size=12,
    )

    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_in_place_execution_matches_deepcopy(self, operations):
        def run(contract):
            registry = ContractRegistry()
            registry.deploy(contract)
            engine = ContractEngine(registry)
            receipts = []
            for index, (method, key, value) in enumerate(operations):
                ctx = ContractContext(
                    block_height=1, block_timestamp=1.0, sender="s", tx_id=f"tx-{index}"
                )
                receipt = engine.execute("kvstore", method, {"key": key, "value": value}, ctx)
                events = list(receipt.events)
                receipts.append((receipt.ok, receipt.error, receipt.result, events))
            return receipts, engine.state_of("kvstore")

        assert run(KeyValueContract()) == run(UncheckedKeyValueContract())


class TestChainVerificationCaches:
    MINER = "miner-1"
    CLIENT = "client-1"
    MINER_KEY = SigningKey.generate(b"fastpath-miner")
    CLIENT_KEY = SigningKey.generate(b"fastpath-client")

    def lookup(self, name):
        return {self.MINER: self.MINER_KEY.public, self.CLIENT: self.CLIENT_KEY.public}.get(name)

    def make_chain(self):
        registry = ContractRegistry()
        registry.deploy(KeyValueContract())
        config = BlockchainConfig(
            chain_id="fp",
            difficulty_bits=8.0,
            target_block_interval=1.0,
            retarget_window=0,
            pow_mode="simulated",
            confirmations=2,
        )
        return Blockchain(config, registry, key_lookup=self.lookup)

    def put_tx(self, seq, key="k", value=1):
        tx = Transaction(
            sender=self.CLIENT,
            contract="kvstore",
            method="put",
            args={"key": key, "value": value},
            seq=seq,
            tx_id=f"fp-tx-{seq}-{key}",
        )
        return tx.sign(self.CLIENT_KEY)

    def fork(self, chain, parent, txs=(), timestamp=None):
        header = BlockHeader(
            height=parent.height + 1,
            prev_hash=parent.hash,
            merkle_root="",
            timestamp=timestamp if timestamp is not None else parent.header.timestamp + 1.0,
            difficulty_bits=chain.expected_difficulty(parent.hash),
            miner=self.MINER,
        )
        block = Block(header=header, transactions=list(txs))
        header.merkle_root = block.compute_merkle_root()
        block.sign(self.MINER_KEY)
        return block

    @staticmethod
    def fingerprint(chain):
        tx_ids = sorted(chain._tx_locations)
        return (
            chain.head.hash,
            chain.reorgs,
            chain.state_of("kvstore"),
            tx_ids,
            [chain.confirmations(tx_id) for tx_id in tx_ids],
        )

    def test_reorg_replay_identical_with_and_without_caches(self):
        # Warm replica: every transaction passes admission before its block
        # arrives and the first block is this node's own template, so block
        # validation is served from the verified-sets.
        warm = self.make_chain()
        genesis = warm.head
        tx_a = self.put_tx(1, "a", 1)
        tx_b = self.put_tx(1, "b", 2)
        tx_c = self.put_tx(2, "c", 3)
        assert all(warm.validate_transaction(tx) for tx in (tx_a, tx_b, tx_c))
        a1 = warm.create_block(self.MINER, [tx_a], 1.0, signing_key=self.MINER_KEY)
        warm.add_block(a1)
        b1 = self.fork(warm, genesis, txs=[tx_b], timestamp=1.5)
        warm.add_block(b1)
        b2 = self.fork(warm, b1, txs=[tx_c])
        warm.add_block(b2)
        kinds = {key[0] for key in warm._verified}
        assert kinds == {"tx", "merkle", "miner"}
        # Cold replica: the same blocks off the wire, nothing verified yet
        # (a chain built without a verified-set gets its own, empty one).
        cold = self.make_chain()
        assert cold._verified is not warm._verified and not cold._verified
        for block in (a1, b1, b2):
            cold.add_block(Block.from_dict(block.to_dict()))
        assert self.fingerprint(warm) == self.fingerprint(cold)
        assert warm.reorgs >= 1  # the reorg actually happened

    def test_tampered_body_rejected_despite_merkle_cache(self):
        chain = self.make_chain()
        block = chain.create_block(self.MINER, [self.put_tx(1)], 1.0, signing_key=self.MINER_KEY)
        block.transactions = []  # body substitution after mining
        with pytest.raises(Exception):
            chain.add_block(block)

    def test_tampered_tx_rejected_despite_signature_cache(self):
        chain = self.make_chain()
        tx = self.put_tx(1)
        assert chain.validate_transaction(tx)  # primes the verified-set
        tampered = tx.replace(args={"key": "k", "value": 999})
        block = chain.create_block(self.MINER, [tampered], 1.0, signing_key=self.MINER_KEY)
        with pytest.raises(Exception):
            chain.add_block(block)


class TestAuditBurstBlockLimits:
    """The audit-burst scenario drives block assembly into its caps."""

    def test_burst_hits_block_caps_and_every_log_still_commits(self):
        from repro.drams.system import DramsConfig
        from repro.harness import MonitoredFederation
        from repro.workload.scenarios import audit_burst_scenario

        max_block_txs = 16
        max_block_bytes = 24_000
        config = DramsConfig(
            chain=BlockchainConfig(
                chain_id="burst-chain",
                difficulty_bits=10.0,
                target_block_interval=0.5,
                retarget_window=0,
                max_block_txs=max_block_txs,
                max_block_bytes=max_block_bytes,
                pow_mode="simulated",
                confirmations=2,
            ),
            timeout_blocks=10,
            tick_interval=1.0,
            analyser_sweep_interval=1.0,
            node_hashrate=1024.0,
            use_tpm=False,
        )
        stack = MonitoredFederation.build(
            audit_burst_scenario(), clouds=2, seed=42, with_drams=True, drams_config=config
        )
        stack.start()
        stack.issue_requests(80)
        stack.run(until=40.0)

        chain = stack.drams.reference_chain()
        blocks = chain.main_chain()
        body_counts = [len(block.transactions) for block in blocks]
        # The burst actually saturates templates (the calmer scenarios
        # never reach the caps)…
        assert max(body_counts) == max_block_txs
        assert sum(1 for count in body_counts if count == max_block_txs) >= 3
        assert all(block.body_size_bytes() <= max_block_bytes for block in blocks)
        # …and backlogged mempools drain without losing a single log:
        submitted = sum(li.logs_submitted for li in stack.drams.interfaces.values())
        stats = stack.drams.monitor_state()["stats"]
        assert stats["logs"] == submitted == 4 * len(stack.outcomes)
        assert stats["verified"] == len(stack.outcomes) == 80
        assert stack.drams.analyser.checked == 80


class TestCompiledOracle:
    def test_compiled_matches_interpreter_on_all_scenarios(self):
        from repro.analysis.semantics import DecisionOracle, evaluate_document
        from repro.common.rng import SeededRng
        from repro.workload.generator import RequestGenerator
        from repro.workload.scenarios import all_scenarios

        for scenario in all_scenarios():
            oracle = DecisionOracle(scenario.policy_document)
            generator = RequestGenerator(scenario.workload, SeededRng(11, "oracle-diff"))
            for generated in generator.requests(80):
                request = {
                    "subject": {k: [v] for k, v in generated.subject.items()},
                    "resource": {k: [v] for k, v in generated.resource.items()},
                    "action": {k: [v] for k, v in generated.action.items()},
                    "environment": {"origin-tenant": ["tenant-1"]},
                }
                expected = evaluate_document(scenario.policy_document, request)
                assert oracle.expected_decision(request) == expected, (scenario.name, request)
