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

from typing import Callable, Optional

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


class BlockchainNode(Host):
    """A mining/validating peer."""

    def __init__(self, network: Network, address: str, config: BlockchainConfig,
                 registry: ContractRegistry, rng: SeededRng,
                 key_lookup: Optional[KeyLookup] = None,
                 signing_key: Optional[SigningKey] = None,
                 hashrate: float = 1e6, mine: bool = True,
                 verified: Optional[VerifiedSet] = None) -> None:
        super().__init__(network, address)
        self.chain = Blockchain(config, registry, key_lookup=key_lookup,
                                require_signatures=key_lookup is not None,
                                verified=verified)
        self.mempool = Mempool()
        self.rng = rng.fork(f"node/{address}")
        self.signing_key = signing_key
        self.hashrate = hashrate
        self.mining_enabled = mine
        self.peers: list[str] = []
        self.blocks_mined = 0
        self.invalid_blocks_seen = 0
        #: Messages of any ``bc_*`` kind dropped at the decode boundary.
        self.malformed_messages_seen = 0
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
            tracer.open_span(("chain.mempool", self.address, tx.tx_id),
                             "chain.mempool", self.address, category="chain",
                             attrs={"method": tx.method})
        if accepted and not self.crashed:
            self._gossip("bc_tx", tx)
        # While crashed the mempool acts as the LI's write-ahead journal:
        # the transaction is queued durably and flooded at restart.
        return accepted

    # -- gossip ----------------------------------------------------------------

    def _gossip(self, kind: str, item: Transaction | Block,
                relayed: Optional[Message] = None) -> None:
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
        self.network.multicast(self.address, [p for p in self.peers if p != source],
                               kind, payload, relayed=relayed, decoded=item)

    def _decoded(self, message: Message, kind: type):
        """The sideband if it is exactly a ``kind``, else the payload decoded; None if malformed."""
        if type(message.decoded) is kind:
            return message.decoded
        try:
            return kind.from_dict(message.payload)
        except ValidationError:
            self.malformed_messages_seen += 1
            return None

    def receive(self, message: Message) -> None:
        if message.kind == "bc_tx":
            self._handle_tx(message)
        elif message.kind == "bc_block":
            self._handle_block(message)
        elif message.kind == "bc_block_request":
            self._handle_block_request(message)
        elif message.kind == "bc_head_request":
            self._handle_head_request(message)
        elif message.kind == "bc_head":
            self._handle_head(message)
        elif message.kind == "bc_header_sync":
            self._handle_header_sync(message)
        elif message.kind == "bc_proof_request":
            self._handle_proof_request(message)

    def _handle_tx(self, message: Message) -> None:
        tx = self._decoded(message, Transaction)
        if tx is None or tx.tx_id in self._seen_txs:
            return
        self._seen_txs.add(tx.tx_id)
        if not self.chain.validate_transaction(tx):
            return
        if self.mempool.add(tx):
            self._gossip("bc_tx", tx, relayed=message)

    def _handle_block(self, message: Message) -> None:
        block = self._decoded(message, Block)
        if block is None or block.hash in self._seen_blocks:
            return
        self._seen_blocks.add(block.hash)
        if not self.chain.has_block(block.header.prev_hash):
            # Orphan: park it and ask the sender for the missing parent
            # (deduplicated so concurrent gossip does not storm requests).
            self._orphans[block.header.prev_hash] = block
            self._seen_blocks.discard(block.hash)
            if block.header.prev_hash not in self._requested_parents:
                self._requested_parents.add(block.header.prev_hash)
                self.send(message.src, "bc_block_request",
                          {"hash": block.header.prev_hash})
            return
        self._accept_block(block, relayed=message)

    def _reject_malformed(self, message: Message, **fields: type) -> bool:
        """True, and counted, unless the payload is a dict whose ``fields`` have these types.

        Every field is optional on the wire (handlers default the absent
        ones); one that is present with another type would raise where it
        is converted or used as a key, so the message is dropped instead.
        """
        payload = message.payload
        if isinstance(payload, dict) and all(
            isinstance(payload[name], kind) for name, kind in fields.items() if name in payload
        ):
            return False
        self.malformed_messages_seen += 1
        return True

    def _handle_block_request(self, message: Message) -> None:
        if self._reject_malformed(message, hash=str):
            return
        block = self.chain.get_block(message.payload.get("hash", ""))
        if block is None:
            return
        self.send(message.src, "bc_block", block.to_dict())

    def _handle_head_request(self, message: Message) -> None:
        self.send(message.src, "bc_head",
                  {"hash": self.chain.head.hash, "height": self.chain.height})

    def _handle_head(self, message: Message) -> None:
        """A peer's head, answering our rejoin handshake.

        If we already hold it, we were never behind (or backfill has
        caught up) — sync is done.  Otherwise chase it through the
        ordinary parent-request path: the peer returns the head block,
        whose missing ancestry the orphan machinery walks hop by hop.
        """
        if self._reject_malformed(message, hash=str) or not self._syncing:
            return
        head_hash = message.payload.get("hash", "")
        if not head_hash:
            return
        if self.chain.has_block(head_hash):
            self._finish_sync()
            return
        self._sync_target = head_hash
        if head_hash not in self._requested_parents:
            self._requested_parents.add(head_hash)
            self.send(message.src, "bc_block_request", {"hash": head_hash})

    # -- light-client service --------------------------------------------------

    def _handle_header_sync(self, message: Message) -> None:
        """Serve a light client's locator with main-chain headers.

        The reply carries the headers above the highest locator hash still
        on our main chain plus our tip coordinates, so the client knows
        whether another round is needed (``limit`` bounds each reply).
        """
        if self._reject_malformed(message, locator=list, limit=int):
            return
        locator = [str(h) for h in message.payload.get("locator", [])]
        limit = message.payload.get("limit", 64)
        headers = self.chain.headers_after(locator, max(1, min(limit, 512)))
        self.header_syncs_served += 1
        # The reply id is derived from the request id: light-client service
        # traffic must not advance the global id counter (see Host.send).
        self.send(message.src, "bc_headers", {
            "headers": [header.to_dict() for header in headers],
            "tip_hash": self.chain.head.hash,
            "tip_height": self.chain.height,
        }, msg_id=f"{message.msg_id}#headers")

    def _handle_proof_request(self, message: Message) -> None:
        """Serve an inclusion proof (plus the proven transaction).

        The client re-derives everything it trusts — the reply is pure
        evidence: the transaction bytes, the Merkle path binding them into
        a block body, and that block's header coordinates.  A request the
        node cannot resolve gets ``found: False`` with the request echo so
        the client can stop waiting.
        """
        if self._reject_malformed(
            message, request_id=str, tx_id=str, correlation_id=str, entry_type=str
        ):
            return
        payload = message.payload
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
                    reply.update({
                        "found": True,
                        "tx": tx.to_dict(),
                        "proof": proof.to_dict(),
                        "tree_size": len(block.transactions),
                        "header": block.header.to_dict(),
                    })
                    self.proofs_served += 1
                    break
        self.send(message.src, "bc_proof", reply, msg_id=f"{message.msg_id}#proof")

    def _finish_sync(self) -> None:
        self._syncing = False
        self._sync_target = None
        if self.mining_enabled:
            self._reschedule_mining()

    def _accept_block(self, block: Block, relayed: Optional[Message] = None) -> None:
        old_head = self.chain.head.hash
        self._requested_parents.discard(block.hash)
        try:
            self.chain.add_block(block)
        except ChainValidationError:
            self.invalid_blocks_seen += 1
            return
        self.mempool.remove_all(tx.tx_id for tx in block.transactions)
        tracer = self.network.telemetry
        if tracer is not None:
            # Non-strict: every block closes spans for its own txs only —
            # most were submitted at other nodes or outside any trace.
            for tx in block.transactions:
                tracer.close_span(("chain.mempool", self.address, tx.tx_id),
                                  "included",
                                  attrs={"height": block.header.height},
                                  strict=False)
        self._gossip("bc_block", block, relayed=relayed)
        # Reconnect any orphan waiting on this block.
        child = self._orphans.pop(block.hash, None)
        if child is not None and child.hash not in self._seen_blocks:
            self._seen_blocks.add(child.hash)
            self._accept_block(child)
        if self._syncing and self._sync_target is not None and \
                self.chain.has_block(self._sync_target):
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
        self._mine_event = self.sim.schedule(delay, self._mine_block,
                                             label=f"mine:{self.address}")

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
