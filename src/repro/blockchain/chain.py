"""Block store, validation, fork choice and state replay.

Fork choice is by *total work* (sum of ``2**difficulty_bits`` over the
branch), ties broken by lowest tip hash, so all honest nodes converge on the
same head given the same block set.

Contract state is maintained incrementally while blocks extend the current
head; a reorganisation restores the deepest state checkpoint still on the
winning branch (one is taken every ``SNAPSHOT_INTERVAL`` blocks, genesis
always has one) and replays from there.  Replicas over one registry share
their checkpoints, so each is copied once per deployment.  Contract events
emitted by newly applied blocks are pushed to subscribers — this is how
security alerts produced by the monitor contract reach the Logging Interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import ValidationError
from repro.crypto.hashing import hash_value
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.signatures import SigningKey, VerifyingKey
from repro.blockchain.block import Block, BlockHeader, make_genesis
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import (
    ContractContext,
    ContractEngine,
    ContractEvent,
    ContractRegistry,
    ExecutionReceipt,
)
from repro.blockchain.mempool import Mempool
from repro.blockchain.pow import (
    block_work,
    expected_difficulty,
    grind_nonce_parts,
    meets_target,
    wins_fork_choice,
)
from repro.blockchain.transaction import Transaction

EventSubscriber = Callable[[ContractEvent, str], None]
KeyLookup = Callable[[str], Optional[VerifyingKey]]
#: Content keys of cryptographic checks that passed; see ``Blockchain.__init__``.
VerifiedSet = set[tuple]


class ChainValidationError(ValidationError):
    """A block failed consensus validation."""


@dataclass
class TxLocation:
    """Where a transaction landed on the main chain."""

    block_hash: str
    height: int
    receipt: ExecutionReceipt


@dataclass
class _Snapshot:
    """Chain state right after a block applied; shared, never mutated."""

    height: int
    engine_state: dict
    sender_seqs: dict[str, set[int]]
    tx_locations: dict[str, TxLocation]


class Blockchain:
    """A node's view of the chain plus replicated contract state.

    ``key_lookup`` resolves a sender/miner id to its verifying key; when it
    returns None for a sender, signature validation fails closed (unknown
    senders are rejected).  A chain built without ``key_lookup`` checks no
    signature (some unit tests exercise consensus without the key registry).
    """

    SNAPSHOT_INTERVAL = 25
    #: Per-block Merkle trees memoised for proof service; receipts cluster
    #: on recent blocks, so a handful of trees covers nearly every request.
    PROOF_TREE_CACHE = 32
    #: Verified-set entries kept before the set resets.  A reset is always
    #: safe — the next validation simply re-verifies — so this just bounds
    #: memory on very long runs (cf. the LRU bound on the decision cache).
    VERIFY_CACHE_LIMIT = 200_000

    def __init__(
        self,
        config: BlockchainConfig,
        registry: ContractRegistry,
        key_lookup: Optional[KeyLookup] = None,
        verified: Optional[VerifiedSet] = None,
    ) -> None:
        self.config = config
        self.registry = registry
        self.key_lookup = key_lookup
        self.engine = ContractEngine(registry)
        self.genesis = make_genesis(
            config.chain_id, hash_value(config.to_dict()), config.difficulty_bits
        )
        self._blocks: dict[str, Block] = {self.genesis.hash: self.genesis}
        self._total_work: dict[str, float] = {self.genesis.hash: 0.0}
        self._head_hash: str = self.genesis.hash
        self._applied_branch: list[str] = [self.genesis.hash]
        # Blocks whose state is currently applied, kept in sync *during*
        # head switches (``_head_hash`` only moves at the end of one).
        # Confirmation queries from contract-event subscribers fire
        # mid-replay, so they must read this view, not the stale head.
        self._applied_heights: dict[str, int] = {self.genesis.hash: 0}
        self._applied_tip_height: int = 0
        self._tx_locations: dict[str, TxLocation] = {}
        self._sender_seqs: dict[str, set[int]] = {}
        self._subscribers: list[EventSubscriber] = []
        self._snapshots: dict[str, _Snapshot] = {}
        self._orphaned_txs: dict[str, Transaction] = {}
        self._proof_trees: dict[str, MerkleTree] = {}
        # Verify once per deployment: ``DramsSystem._deploy`` hands every
        # replica the same set, the way it shares the registry (a replica
        # given none starts cold), so a signature or block body is checked
        # once however many replicas, admissions or templates revisit it.
        # A hit is sound wherever it was written: each check is a pure
        # function, its key holds every input (content hash, signature
        # values, verifying key for a transaction; block hash, signature
        # values, miner key for a miner signature; block hash, body leaf
        # hashes for a Merkle root), and only this class writes a key, in
        # the call where the check passed (``create_block`` records the
        # root it just derived).  Failures are never cached; a tampered
        # copy, forged signature or substituted key always misses.
        self._verified: VerifiedSet = verified if verified is not None else set()
        self.reorgs = 0
        self.rejected_blocks = 0
        self._take_snapshot(self.genesis.hash, 0)

    # -- inspection ------------------------------------------------------------

    @property
    def head(self) -> Block:
        return self._blocks[self._head_hash]

    @property
    def height(self) -> int:
        return self.head.height

    def get_block(self, block_hash: str) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def has_block(self, block_hash: str) -> bool:
        return block_hash in self._blocks

    def main_chain(self) -> list[Block]:
        """Genesis-to-head block list."""
        return [self._blocks[h] for h in self._applied_branch]

    def block_count(self) -> int:
        return len(self._blocks)

    def tx_location(self, tx_id: str) -> Optional[TxLocation]:
        """Main-chain location of a transaction, if included."""
        return self._tx_locations.get(tx_id)

    def inclusion_proof(self, tx_id: str) -> Optional[MerkleProof]:
        """Merkle proof that ``tx_id`` is in its main-chain block's body.

        The proof's leaf is the transaction's content hash (the commitment
        block headers carry), so a light client holding only the block
        header can check membership in O(log block-size) hashes.  Returns
        None for unknown or orphaned transactions.  Proof trees are
        memoised per block — serving many receipts from one block builds
        the tree once.
        """
        location = self._tx_locations.get(tx_id)
        if location is None or location.block_hash not in self._applied_heights:
            return None
        block = self._blocks[location.block_hash]
        tree = self._proof_trees.get(location.block_hash)
        if tree is None:
            tree = MerkleTree([tx.content_hash() for tx in block.transactions])
            if len(self._proof_trees) >= self.PROOF_TREE_CACHE:
                self._proof_trees.clear()
            self._proof_trees[location.block_hash] = tree
        for index, tx in enumerate(block.transactions):
            if tx.tx_id == tx_id:
                return tree.proof(index)
        return None

    def confirmations(self, tx_id: str) -> int:
        """Blocks on top of (and including) the tx's block; 0 if unconfirmed.

        A transaction whose block was orphaned by a reorg (and that has not
        been re-included on the winning branch) reports 0, and queries made
        while a reorg is still replaying count from the applied tip rather
        than the not-yet-updated head, so subscribers never see phantom
        confirmations.
        """
        location = self._tx_locations.get(tx_id)
        if location is None or location.block_hash not in self._applied_heights:
            return 0
        return self._applied_tip_height - location.height + 1

    def is_final(self, tx_id: str) -> bool:
        return self.confirmations(tx_id) >= self.config.confirmations

    def headers_after(self, locator: list[str], limit: int) -> list[BlockHeader]:
        """Main-chain headers following the best locator match.

        ``locator`` lists block hashes the requester already holds, newest
        first (light clients space them exponentially, Bitcoin-style); the
        reply starts just above the first one found on the main chain, or
        just above genesis when none match — the requester may sit on a
        branch we reorged away from, but it always holds genesis (it can
        reconstruct it from the chain config alone).
        """
        start = 1
        for block_hash in locator:
            height = self._applied_heights.get(block_hash)
            if (
                height is not None
                and height < len(self._applied_branch)
                and self._applied_branch[height] == block_hash
            ):
                start = height + 1
                break
        chunk = self._applied_branch[start : start + max(0, limit)]
        return [self._blocks[block_hash].header for block_hash in chunk]

    def subscribe_events(self, subscriber: EventSubscriber) -> None:
        """Receive contract events as their blocks are applied to the head."""
        self._subscribers.append(subscriber)

    # -- difficulty schedule -------------------------------------------------

    def expected_difficulty(self, parent_hash: str) -> float:
        """Difficulty required of the block extending ``parent_hash``.

        Retargets every ``retarget_window`` blocks using the mean block
        interval across the previous window on that branch.
        """
        parent = self._blocks.get(parent_hash)
        if parent is None:
            raise ChainValidationError(f"unknown parent: {parent_hash}")
        return expected_difficulty(
            parent.header, lambda block_hash: self._blocks[block_hash].header, self.config
        )

    # -- validation ----------------------------------------------------------

    def _validate_block(self, block: Block) -> None:
        header = block.header
        parent = self._blocks.get(header.prev_hash)
        if parent is None:
            raise ChainValidationError(f"unknown parent {header.prev_hash[:12]}")
        if header.height != parent.height + 1:
            raise ChainValidationError(
                f"height {header.height} does not extend parent height {parent.height}"
            )
        if header.timestamp < parent.header.timestamp:
            raise ChainValidationError("timestamp decreases along the chain")
        if not self._passes_once(
            self._merkle_key(block), lambda: block.compute_merkle_root() == header.merkle_root
        ):
            raise ChainValidationError("merkle root does not match block body")
        if len(block.transactions) > self.config.max_block_txs:
            raise ChainValidationError("too many transactions in block")
        if block.body_size_bytes() > self.config.max_block_bytes:
            raise ChainValidationError("block body exceeds size limit")
        expected_bits = self.expected_difficulty(header.prev_hash)
        if abs(header.difficulty_bits - expected_bits) > 1e-9:
            raise ChainValidationError(
                f"difficulty {header.difficulty_bits} != expected {expected_bits}"
            )
        if self.config.pow_mode == "real" and not meets_target(block.hash, header.difficulty_bits):
            raise ChainValidationError("block hash does not meet the PoW target")
        seen_tx_ids: set[str] = set()
        for tx in block.transactions:
            if tx.tx_id in seen_tx_ids:
                raise ChainValidationError(f"duplicate tx in block: {tx.tx_id}")
            seen_tx_ids.add(tx.tx_id)
            self._validate_tx_signature(tx)
        if self.key_lookup is not None and not self._miner_signature_passes(block):
            raise ChainValidationError(f"bad miner signature from {header.miner}")

    def _miner_signature_passes(self, block: Block) -> bool:
        key = self.key_lookup(block.header.miner)
        signature = block.miner_signature
        if key is None or signature is None:
            return False
        cache_key = ("miner", block.hash, signature.e, signature.s, key.y)
        return self._passes_once(cache_key, lambda: block.verify_miner_signature(key))

    @staticmethod
    def _merkle_key(block: Block) -> tuple:
        """Verified-set key: header hash plus the body's (cached) leaves."""
        return ("merkle", block.hash, tuple(tx.content_hash() for tx in block.transactions))

    def _passes_once(self, key: tuple, check: Callable[[], bool]) -> bool:
        """``check()``, not re-run once it has passed for ``key``.

        ``key`` must hold every input of ``check``, which must be pure.
        """
        if key in self._verified:
            return True
        if not check():
            return False
        self._remember_verified(key)
        return True

    def _remember_verified(self, key: tuple) -> None:
        """Record a verified-set entry, resetting the set when it is full."""
        if len(self._verified) >= self.VERIFY_CACHE_LIMIT:
            self._verified.clear()
        self._verified.add(key)

    def _validate_tx_signature(self, tx: Transaction) -> None:
        if self.key_lookup is None:
            return
        key = self.key_lookup(tx.sender)
        if key is None:
            raise ChainValidationError(f"unknown transaction sender {tx.sender!r}")
        signature = tx.signature
        if signature is not None:
            cache_key = ("tx", tx.content_hash(), signature.e, signature.s, key.y)
            if self._passes_once(cache_key, lambda: tx.verify(key)):
                return
        raise ChainValidationError(f"invalid signature on tx {tx.tx_id}")

    def validate_transaction(self, tx: Transaction) -> bool:
        """Admission check used by mempools (signature + not already final)."""
        if tx.tx_id in self._tx_locations:
            return False
        try:
            self._validate_tx_signature(tx)
        except ChainValidationError:
            return False
        return True

    # -- insertion & fork choice ----------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Validate and insert; returns True if the head advanced or moved."""
        if block.hash in self._blocks:
            return False
        try:
            self._validate_block(block)
        except ChainValidationError:
            self.rejected_blocks += 1
            raise
        self._blocks[block.hash] = block
        parent_work = self._total_work[block.header.prev_hash]
        self._total_work[block.hash] = parent_work + block_work(block.header.difficulty_bits)
        return self._maybe_update_head(block)

    def _maybe_update_head(self, candidate: Block) -> bool:
        work, head = self._total_work, self._head_hash
        if not wins_fork_choice(work[candidate.hash], candidate.hash, work[head], head):
            return False
        self._switch_head(candidate.hash)
        return True

    def _branch_of(self, tip_hash: str) -> list[str]:
        branch = []
        cursor = tip_hash
        while cursor != self.genesis.hash:
            branch.append(cursor)
            cursor = self._blocks[cursor].header.prev_hash
        branch.append(self.genesis.hash)
        branch.reverse()
        return branch

    def _take_snapshot(self, block_hash: str, height: int) -> None:
        # Checkpoint once per deployment: replicas over one registry share
        # the checkpoint of a block hash.  A hit is sound wherever it was
        # taken: the checkpoint at H is a pure function of the registry's
        # code (``deploy`` refuses once a replica is alive) and of H, which
        # commits to every ancestor and, through genesis, to the chain
        # config.  No one mutates a checkpoint (a restore copies it).
        snapshot = self.registry.checkpoints.get(block_hash)
        if snapshot is None:
            snapshot = self.registry.checkpoints[block_hash] = _Snapshot(
                height=height,
                engine_state=self.engine.dump_state(),
                sender_seqs={k: set(v) for k, v in self._sender_seqs.items()},
                tx_locations=dict(self._tx_locations),
            )
        self._snapshots[block_hash] = snapshot
        # Bound memory: keep the deepest few snapshots plus genesis.
        if len(self._snapshots) > 12:
            removable = sorted(
                (h for h in self._snapshots if h != self.genesis.hash),
                key=lambda h: self._snapshots[h].height,
            )
            del self._snapshots[removable[0]]

    def _switch_head(self, new_head: str) -> None:
        block = self._blocks[new_head]
        if block.header.prev_hash == self._applied_branch[-1]:
            # Extension, with no branch walk.  The only kind: a block that
            # outworks the head becomes the head on arrival, so the head
            # never has a descendant in the store.
            self._apply_block(block)
            self._applied_branch.append(new_head)
        else:
            # Reorg: restore the deepest snapshot still on the winning branch
            # and replay from there (genesis always has a snapshot).
            new_branch = self._branch_of(new_head)
            self.reorgs += 1
            old_branch = list(self._applied_branch)
            restore_index = 0
            for index in range(len(new_branch) - 1, -1, -1):
                if new_branch[index] in self._snapshots:
                    restore_index = index
                    break
            snapshot = self._snapshots[new_branch[restore_index]]
            self.engine.load_state(snapshot.engine_state)
            self._sender_seqs = {k: set(v) for k, v in snapshot.sender_seqs.items()}
            self._tx_locations = dict(snapshot.tx_locations)
            # Rewind the applied view to the restore point before replay so
            # losing-branch blocks stop counting as confirmed immediately.
            self._applied_heights = {
                block_hash: height
                for height, block_hash in enumerate(new_branch[: restore_index + 1])
            }
            self._applied_tip_height = restore_index
            for block_hash in new_branch[restore_index + 1 :]:
                self._apply_block(self._blocks[block_hash])
            self._applied_branch = new_branch
            # Transactions confirmed on the losing branch but absent from
            # the winning one must go back to the mempool, or their log
            # entries would be silently lost (the node drains
            # take_orphaned_txs after every head change).
            new_set = set(new_branch)
            for block_hash in old_branch:
                if block_hash in new_set:
                    continue
                for tx in self._blocks[block_hash].transactions:
                    if tx.tx_id not in self._tx_locations:
                        self._orphaned_txs[tx.tx_id] = tx
        self._head_hash = new_head

    def take_orphaned_txs(self) -> list[Transaction]:
        """Drain transactions displaced by reorgs (for mempool re-injection)."""
        orphans = [tx for tx_id, tx in self._orphaned_txs.items() if tx_id not in self._tx_locations]
        self._orphaned_txs.clear()
        return orphans

    def _apply_block(self, block: Block) -> None:
        if block.height > 0 and block.height % self.SNAPSHOT_INTERVAL == 0:
            self._take_snapshot(block.header.prev_hash, block.height - 1)
        self._applied_heights[block.hash] = block.height
        self._applied_tip_height = block.height
        for tx in block.transactions:
            used = self._sender_seqs.setdefault(tx.sender, set())
            if tx.seq in used:
                # Replay within the branch: skip rather than poison the block
                # (mirrors nonce-too-low handling in production chains).
                continue
            used.add(tx.seq)
            ctx = ContractContext(
                block_height=block.height,
                block_timestamp=block.header.timestamp,
                sender=tx.sender,
                tx_id=tx.tx_id,
            )
            receipt = self.engine.execute(tx.contract, tx.method, tx.args, ctx, tx.args_size())
            self._tx_locations[tx.tx_id] = TxLocation(
                block_hash=block.hash, height=block.height, receipt=receipt
            )
            for event in receipt.events:
                for subscriber in self._subscribers:
                    subscriber(event, block.hash)

    # -- block production -----------------------------------------------------

    def create_block(
        self,
        miner: str,
        transactions: list[Transaction],
        timestamp: float,
        signing_key: Optional[SigningKey] = None,
        max_grind_attempts: Optional[int] = None,
    ) -> Block:
        """Assemble (and in real mode, mine) a block extending the head."""
        parent = self.head
        difficulty = self.expected_difficulty(parent.hash)
        header = BlockHeader(
            height=parent.height + 1,
            prev_hash=parent.hash,
            merkle_root="",
            timestamp=max(timestamp, parent.header.timestamp),
            difficulty_bits=difficulty,
            miner=miner,
        )
        block = Block(header=header, transactions=list(transactions))
        header.merkle_root = block.compute_merkle_root()
        if self.config.pow_mode == "real":
            prefix, suffix = header.nonce_parts()
            found = grind_nonce_parts(prefix, suffix, difficulty, max_attempts=max_grind_attempts)
            if found is None:
                raise ChainValidationError("mining attempt budget exhausted")
            header.nonce = found[0]
        if signing_key is not None:
            block.sign(signing_key)
        # The miner just derived the root from this very body; its own
        # validation pass need not recompute it.
        self._remember_verified(self._merkle_key(block))
        return block

    def collect_block_txs(self, mempool: Mempool) -> list[Transaction]:
        """Pick mempool transactions eligible for the next block."""
        candidates = mempool.peek(
            self.config.max_block_txs, self.config.max_block_bytes, exclude=self._tx_locations
        )
        return [tx for tx in candidates if self.validate_transaction(tx)]

    def state_of(self, contract_name: str) -> dict[str, Any]:
        """Current main-chain state of a contract."""
        return self.engine.state_of(contract_name)
