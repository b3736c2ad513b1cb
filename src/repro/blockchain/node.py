"""Gossiping miner/validator node on the simulated network.

Each federation tenant runs a node.  Nodes flood transactions and blocks to
their peers, maintain their own :class:`~repro.blockchain.chain.Blockchain`
replica, and produce blocks.

Block production follows the standard memoryless PoW model: with hashrate
``H`` (hashes/second) and difficulty ``d`` bits, the time to the node's next
valid block is exponential with rate ``H / expected_hashes(d)``.  Whenever
the head changes, the draw is restarted (the node now mines on the new
head).  In ``real`` PoW mode the winning block is additionally ground to a
genuine nonce so validation can check the hash; in ``simulated`` mode the
chain semantics are identical but the hash check is skipped.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.crypto.signatures import SigningKey
from repro.simnet.network import Host, Message, Network
from repro.simnet.simulator import Event
from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain, ChainValidationError, KeyLookup, VerifiedSet
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry
from repro.blockchain.mempool import Mempool
from repro.blockchain.pow import expected_hashes
from repro.blockchain.transaction import Transaction

HeadListener = Callable[[Block], None]


def _fields(payload: Any, **types: type) -> dict:
    """``payload`` if it is an object whose fields named in ``types`` have those types.

    Every field is optional (handlers default the absent ones); one present
    with another type would raise where it is converted or used as a key.
    """
    if isinstance(payload, dict) and all(
        isinstance(payload[name], kind) for name, kind in types.items() if name in payload
    ):
        return payload
    raise ValidationError("malformed request: not an object, or a field of the wrong type")


class BlockchainNode(Host):
    """A mining/validating peer."""

    def __init__(
        self,
        network: Network,
        address: str,
        config: BlockchainConfig,
        registry: ContractRegistry,
        rng: SeededRng,
        key_lookup: Optional[KeyLookup] = None,
        signing_key: Optional[SigningKey] = None,
        hashrate: float = 1e6,
        mine: bool = True,
        verified: Optional[VerifiedSet] = None,
    ) -> None:
        super().__init__(network, address)
        self.chain = Blockchain(config, registry, key_lookup, verified=verified)
        self.mempool = Mempool()
        self.rng = rng.fork(f"node/{address}")
        self.signing_key = signing_key
        self.hashrate = hashrate
        self.mining_enabled = mine
        self.peers: list[str] = []
        self.blocks_mined = 0
        self.invalid_blocks_seen = 0
        self._seen_txs: set[str] = set()
        self._seen_blocks: set[str] = {self.chain.genesis.hash}
        self._requested_parents: set[str] = set()
        self._orphans: dict[str, Block] = {}
        self._mine_event: Optional[Event] = None
        self._head_listeners: list[HeadListener] = []
        #: Crash/rejoin state (fault plane).  A restarted node holds its
        #: mining until the head-sync handshake confirms it sits on the
        #: network's current chain, so a rejoin can never fork the
        #: monitored head from a stale tip.
        self.crashed = False
        self.crashes = 0
        self.resyncs = 0
        self._syncing = False
        self._sync_target: Optional[str] = None
        #: Light-client proof service.  Requests may name a transaction
        #: directly or carry application-level coordinates (e.g. a DRAMS
        #: ``correlation_id``/``entry_type`` pair); the optional resolver —
        #: installed by whoever deploys contracts on this chain — maps the
        #: latter onto a tx id without the node knowing contract schemas.
        self.tx_resolver: Optional[Callable[[dict], Optional[str]]] = None
        self.proofs_served = 0
        self.header_syncs_served = 0

    # -- wiring -------------------------------------------------------------

    def connect(self, peer_addresses: list[str]) -> None:
        """Set this node's gossip peers (excluding itself)."""
        self.peers = [p for p in peer_addresses if p != self.address]

    def on_head_change(self, listener: HeadListener) -> None:
        """Call ``listener(head_block)`` whenever the main-chain head moves."""
        self._head_listeners.append(listener)

    def start(self) -> None:
        """Begin mining (call after the network/peers are wired up)."""
        if self.mining_enabled:
            self._reschedule_mining()

    def stop(self) -> None:
        if self._mine_event is not None:
            self._mine_event.cancel()
            self._mine_event = None

    # -- crash / restart ------------------------------------------------------

    def crash(self) -> None:
        """Abrupt node failure: stop mining, drop off the network.

        The chain replica and mempool survive as the node's durable
        state (disk); what dies is liveness — gossip in flight toward
        this address is dropped by the fabric, and the Logging
        Interface's local submissions are journalled (accepted into the
        mempool, not gossiped) until restart.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self.stop()
        self.network.detach(self.address)

    def restart(self) -> None:
        """Rejoin the network: sync to the current head before mining.

        Re-attaches under a fresh incarnation, re-floods the journalled
        mempool (transactions submitted or displaced during the outage),
        and asks every peer for its head.  Mining stays parked until a
        peer's head is confirmed present in the local chain — either
        immediately (nothing happened while down) or after the existing
        parent-request backfill walks the gap — so the first block this
        node mines after an outage always extends the monitored chain,
        never a stale private tip.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.network.attach(self)
        for tx in self.mempool.pending():
            self._gossip("bc_tx", tx)
        if self.peers:
            self._syncing = True
            self.resyncs += 1
            self._sync_target = None
            for peer in self.peers:
                self.send(peer, "bc_head_request", {})
        elif self.mining_enabled:
            self._reschedule_mining()

    # -- client API ----------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> bool:
        """Local submission endpoint used by the Logging Interface (once per transaction)."""
        if tx.tx_id in self._seen_txs:
            return False
        self._seen_txs.add(tx.tx_id)
        if not self.chain.validate_transaction(tx):
            return False
        tx.submitted_at = self.sim.now
        accepted = self.mempool.add(tx)
        tracer = self.network.telemetry
        if accepted and tracer is not None and tracer.current is not None:
            # Only transactions submitted under an active trace get a
            # mempool span — sweeps and ticks stay untraced.
            tracer.open_span(
                ("chain.mempool", self.address, tx.tx_id),
                "chain.mempool",
                self.address,
                category="chain",
                attrs={"method": tx.method},
            )
        if accepted and not self.crashed:
            self._gossip("bc_tx", tx)
        # While crashed the mempool acts as the LI's write-ahead journal:
        # the transaction is queued durably and flooded at restart.
        return accepted

    # -- gossip ----------------------------------------------------------------

    def _gossip(
        self, kind: str, item: Transaction | Block, relayed: Optional[Message] = None
    ) -> None:
        """Flood ``item`` to every peer but the one it was ``relayed`` from.

        A relay passes on the wire payload it holds, sideband and all.
        Otherwise the payload is built here and ``item`` travels with it
        (:attr:`Message.decoded`), to be shared by every replica — so nothing
        writes to it from here on: ``submit_transaction`` stamps
        ``submitted_at`` before it gossips, and ``create_block`` has set the
        Merkle root, nonce and miner signature before it returns.
        """
        source = relayed.src if relayed is not None else None
        payload = relayed.payload if relayed is not None else item.to_dict()
        peers = [p for p in self.peers if p != source]
        self.network.multicast(self.address, peers, kind, payload, relayed=relayed, decoded=item)

    def _handle_tx(self, message: Message, tx: Transaction) -> None:
        if tx.tx_id in self._seen_txs:
            return
        self._seen_txs.add(tx.tx_id)
        if not self.chain.validate_transaction(tx):
            return
        if self.mempool.add(tx):
            self._gossip("bc_tx", tx, relayed=message)

    def _handle_block(self, message: Message, block: Block) -> None:
        if block.hash in self._seen_blocks:
            return
        self._seen_blocks.add(block.hash)
        if not self.chain.has_block(block.header.prev_hash):
            # Orphan: park it and ask the sender for the missing parent
            # (deduplicated so concurrent gossip does not storm requests).
            self._orphans[block.header.prev_hash] = block
            self._seen_blocks.discard(block.hash)
            if block.header.prev_hash not in self._requested_parents:
                self._requested_parents.add(block.header.prev_hash)
                self.send(message.src, "bc_block_request", {"hash": block.header.prev_hash})
            return
        self._accept_block(block, relayed=message)

    def _decode_hash(self, payload: Any) -> str:
        """``bc_block_request`` / ``bc_head``: the named block ("" if none)."""
        return _fields(payload, hash=str).get("hash", "")

    def _handle_block_request(self, message: Message, block_hash: str) -> None:
        block = self.chain.get_block(block_hash)
        if block is None:
            return
        self.send(message.src, "bc_block", block.to_dict())

    def _handle_head_request(self, message: Message, _payload: None) -> None:
        self.send(
            message.src, "bc_head", {"hash": self.chain.head.hash, "height": self.chain.height}
        )

    def _handle_head(self, message: Message, head_hash: str) -> None:
        """A peer's head, answering our rejoin handshake.

        If we already hold it, we were never behind (or backfill has
        caught up) — sync is done.  Otherwise chase it through the
        ordinary parent-request path: the peer returns the head block,
        whose missing ancestry the orphan machinery walks hop by hop.
        """
        if not self._syncing or not head_hash:
            return
        if self.chain.has_block(head_hash):
            self._finish_sync()
            return
        self._sync_target = head_hash
        if head_hash not in self._requested_parents:
            self._requested_parents.add(head_hash)
            self.send(message.src, "bc_block_request", {"hash": head_hash})

    # -- light-client service --------------------------------------------------

    def _decode_header_sync(self, payload: Any) -> tuple[list[str], int]:
        request = _fields(payload, locator=list, limit=int)
        return [str(h) for h in request.get("locator", [])], request.get("limit", 64)

    def _handle_header_sync(self, message: Message, request: tuple[list[str], int]) -> None:
        """Serve a light client's locator with main-chain headers.

        The reply carries the headers above the highest locator hash still
        on our main chain plus our tip coordinates, so the client knows
        whether another round is needed (``limit`` bounds each reply).
        """
        locator, limit = request
        headers = self.chain.headers_after(locator, max(1, min(limit, 512)))
        self.header_syncs_served += 1
        # The reply id is derived from the request id: light-client service
        # traffic must not advance the run's id counter (see Host.send).
        reply = {
            "headers": [header.to_dict() for header in headers],
            "tip_hash": self.chain.head.hash,
            "tip_height": self.chain.height,
        }
        self.send(message.src, "bc_headers", reply, msg_id=f"{message.msg_id}#headers")

    def _decode_proof_request(self, payload: Any) -> dict:
        return _fields(payload, request_id=str, tx_id=str, correlation_id=str, entry_type=str)

    def _handle_proof_request(self, message: Message, payload: dict) -> None:
        """Serve an inclusion proof (plus the proven transaction).

        The client re-derives everything it trusts — the reply is pure
        evidence: the transaction bytes, the Merkle path binding them into
        a block body, and that block's header coordinates.  A request the
        node cannot resolve gets ``found: False`` with the request echo so
        the client can stop waiting.
        """
        reply: dict = {"request_id": payload.get("request_id"), "found": False}
        tx_id = payload.get("tx_id")
        if not tx_id and self.tx_resolver is not None:
            tx_id = self.tx_resolver(payload)
        location = self.chain.tx_location(tx_id) if tx_id else None
        proof = self.chain.inclusion_proof(tx_id) if tx_id else None
        if location is not None and proof is not None:
            block = self.chain.get_block(location.block_hash)
            for tx in block.transactions:
                if tx.tx_id == tx_id:
                    reply.update(
                        found=True,
                        tx=tx.to_dict(),
                        proof=proof.to_dict(),
                        tree_size=len(block.transactions),
                        header=block.header.to_dict(),
                    )
                    self.proofs_served += 1
                    break
        self.send(message.src, "bc_proof", reply, msg_id=f"{message.msg_id}#proof")

    RECEIVES = {
        "bc_tx": (Transaction, _handle_tx),
        "bc_block": (Block, _handle_block),
        "bc_block_request": (_decode_hash, _handle_block_request),
        "bc_head_request": (lambda _node, _payload: None, _handle_head_request),
        "bc_head": (_decode_hash, _handle_head),
        "bc_header_sync": (_decode_header_sync, _handle_header_sync),
        "bc_proof_request": (_decode_proof_request, _handle_proof_request),
    }

    def _finish_sync(self) -> None:
        self._syncing = False
        self._sync_target = None
        if self.mining_enabled:
            self._reschedule_mining()

    def _accept_block(self, block: Block, relayed: Optional[Message] = None) -> None:
        old_head = self.chain.head.hash
        reorgs = self.chain.reorgs
        self._requested_parents.discard(block.hash)
        try:
            self.chain.add_block(block)
        except ChainValidationError:
            self.invalid_blocks_seen += 1
            return
        # Only what the main chain now holds leaves the mempool: a side
        # block's transactions stay pending here, or they would be on no
        # chain and in no mempool at this node until some other miner
        # (maybe past the monitor's timeout) included them.  A reorg also
        # adopts earlier side blocks, so it checks the whole pool.
        candidates = self.mempool.pending() if self.chain.reorgs != reorgs else block.transactions
        located = self.chain.tx_location
        self.mempool.remove_all(tx.tx_id for tx in candidates if located(tx.tx_id) is not None)
        tracer = self.network.telemetry
        if tracer is not None:
            # Non-strict: every block closes spans for its own txs only —
            # most were submitted at other nodes or outside any trace.
            attrs = {"height": block.header.height}
            for tx in block.transactions:
                key = ("chain.mempool", self.address, tx.tx_id)
                tracer.close_span(key, "included", attrs=attrs, strict=False)
        self._gossip("bc_block", block, relayed=relayed)
        # Reconnect any orphan waiting on this block.
        child = self._orphans.pop(block.hash, None)
        if child is not None and child.hash not in self._seen_blocks:
            self._seen_blocks.add(child.hash)
            self._accept_block(child)
        target = self._sync_target
        if self._syncing and target is not None and self.chain.has_block(target):
            # Rejoin backfill reached the peer head we were chasing.
            self._finish_sync()
        if self.chain.head.hash != old_head:
            # Re-inject transactions that a reorg displaced from the chain;
            # without this, logs confirmed on a losing fork vanish.
            for orphan in self.chain.take_orphaned_txs():
                if self.chain.validate_transaction(orphan):
                    self.mempool.add(orphan)
            for listener in self._head_listeners:
                listener(self.chain.head)
            if self.mining_enabled:
                self._reschedule_mining()

    # -- mining -----------------------------------------------------------------

    def _mining_rate(self) -> float:
        difficulty = self.chain.expected_difficulty(self.chain.head.hash)
        return self.hashrate / expected_hashes(difficulty)

    def _reschedule_mining(self) -> None:
        if self._mine_event is not None:
            self._mine_event.cancel()
            self._mine_event = None
        if self.crashed or self._syncing:
            # Down, or rejoining: mining on a possibly-stale head would
            # mint a private fork of the monitored chain.
            return
        rate = self._mining_rate()
        if rate <= 0:
            return
        delay = self.rng.expovariate(rate)
        self._mine_event = self.sim.schedule(delay, self._mine_block)

    def _mine_block(self) -> None:
        self._mine_event = None
        txs = self.chain.collect_block_txs(self.mempool)
        block = self.chain.create_block(
            miner=self.address,
            transactions=txs,
            timestamp=self.sim.now,
            signing_key=self.signing_key,
        )
        self.blocks_mined += 1
        self._seen_blocks.add(block.hash)
        self._accept_block(block)
        # _accept_block reschedules on head change; if our own block somehow
        # lost fork choice, keep mining regardless.
        if self.mining_enabled and self._mine_event is None:
            self._reschedule_mining()
