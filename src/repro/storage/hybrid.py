"""Hybrid database + blockchain log store (the paper's reference [9]).

Entries are written to a classical database (fast acknowledgement); every
``anchor_interval`` simulated seconds the store computes a Merkle root over
the batch of rows written since the previous anchor and commits *only that
root* (plus the ordered key list) to the chain.

Consequences, measured by experiment E5:

- acknowledgement latency ≈ database write latency (milliseconds);
- on-chain bytes per entry shrink by the batching factor;
- integrity guarantee becomes *delayed*: rows are tamper-evident only
  after their batch's anchor is final — the "integrity window" is at most
  ``anchor_interval`` + chain finality time, and rows inside the window
  are exposed (the trade-off the paper points at).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.errors import ValidationError
from repro.crypto.hashing import hash_value
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import SigningKey
from repro.storage.database import DatabaseStore


@dataclass
class Anchor:
    """One anchored batch: the Merkle root over its rows, in order."""

    batch_index: int
    keys: list[str]
    root: str
    anchored_at: float
    tx_id: str
    final: bool = False


def row_leaf(key: str, value: Any) -> str:
    """Canonical Merkle leaf for a DB row."""
    return hash_value({"key": key, "value": value})


class HybridStore:
    """DB writes now, Merkle anchors on-chain periodically."""

    def __init__(self, database: DatabaseStore, node: BlockchainNode, sender: str,
                 signing_key: SigningKey, anchor_interval: float = 5.0,
                 contract: str = "kvstore") -> None:
        if anchor_interval <= 0:
            raise ValidationError("anchor_interval must be positive")
        self.database = database
        self.node = node
        self.sender = sender
        self.signing_key = signing_key
        self.anchor_interval = anchor_interval
        self.contract = contract
        self._seq = 0
        self._unanchored: list[str] = []
        self._values_at_anchor: dict[str, str] = {}
        self.anchors: list[Anchor] = []
        self.ack_latencies: list[float] = []
        self.anchor_latencies: list[float] = []
        self._pending_anchor_txs: dict[str, Anchor] = {}
        self._stop: Optional[Callable[[], None]] = None
        node.on_head_change(lambda _head: self._settle_anchors())

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic anchoring."""
        if self._stop is None:
            self._stop = self.node.sim.every(self.anchor_interval, self.anchor_now)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # -- writes --------------------------------------------------------------------

    def store(self, key: str, value: Any,
              on_ack: Optional[Callable[[str, float], None]] = None) -> None:
        """Write to the DB; acknowledgement is the DB's, not the chain's."""
        written_at = self.node.sim.now

        def acked(acked_key: str) -> None:
            latency = self.node.sim.now - written_at
            self.ack_latencies.append(latency)
            self._unanchored.append(acked_key)
            if on_ack is not None:
                on_ack(acked_key, latency)

        self.database.write(key, value, on_ack=acked)

    # -- anchoring --------------------------------------------------------------------

    def anchor_now(self) -> Optional[Anchor]:
        """Anchor all rows written since the previous anchor."""
        if not self._unanchored:
            return None
        keys = list(self._unanchored)
        self._unanchored.clear()
        leaves = []
        for key in keys:
            leaf = row_leaf(key, self.database.get(key))
            leaves.append(leaf)
            self._values_at_anchor[key] = leaf
        root = MerkleTree(leaves).root
        self._seq += 1
        tx = Transaction(
            sender=self.sender,
            contract=self.contract,
            method="put",
            args={"key": f"anchor-{len(self.anchors)}",
                  "value": {"root": root, "keys": keys}},
            seq=self._seq,
            tx_id=self.node.sim.new_id("tx"),
        ).sign(self.signing_key)
        anchor = Anchor(
            batch_index=len(self.anchors),
            keys=keys,
            root=root,
            anchored_at=self.node.sim.now,
            tx_id=tx.tx_id,
        )
        self.anchors.append(anchor)
        if self.node.submit_transaction(tx):
            self._pending_anchor_txs[tx.tx_id] = anchor
        return anchor

    def _settle_anchors(self) -> None:
        done = [tx_id for tx_id in self._pending_anchor_txs
                if self.node.chain.is_final(tx_id)]
        for tx_id in done:
            anchor = self._pending_anchor_txs.pop(tx_id)
            anchor.final = True
            self.anchor_latencies.append(self.node.sim.now - anchor.anchored_at)

    # -- inspection ----------------------------------------------------------------------

    def unanchored_keys(self) -> list[str]:
        """Rows currently inside the integrity window."""
        return list(self._unanchored)

    def integrity_window(self) -> float:
        """Worst-case seconds a row stays tamper-exposed."""
        chain_finality = (self.node.chain.config.confirmations
                          * self.node.chain.config.target_block_interval)
        return self.anchor_interval + chain_finality

    def onchain_anchor(self, batch_index: int) -> Optional[dict]:
        """The anchor as replicated on-chain (None until its tx applies)."""
        return self.node.chain.state_of(self.contract)["data"].get(
            f"anchor-{batch_index}")
