"""Pure on-chain log storage.

Every log entry is its own blockchain transaction; durability equals chain
finality.  This is the baseline DRAMS configuration: maximal integrity
(tampering committed history requires rewriting the chain — experiment E4
quantifies that cost), at the price of per-entry consensus latency that
grows with entry size and PoW weight (experiments E2/E3).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.crypto.signatures import SigningKey


class PureChainStore:
    """Stores values as ``kvstore.put`` transactions on the federation chain."""

    def __init__(self, node: BlockchainNode, sender: str,
                 signing_key: SigningKey, contract: str = "kvstore") -> None:
        self.node = node
        self.sender = sender
        self.signing_key = signing_key
        self.contract = contract
        self._seq = 0
        self._pending: dict[str, tuple[str, float, Optional[Callable[[str, float], None]]]] = {}
        self.stored = 0
        self.rejected = 0
        self.durable_latencies: list[float] = []
        node.on_head_change(lambda _head: self._settle())

    def store(self, key: str, value: Any,
              on_durable: Optional[Callable[[str, float], None]] = None) -> Optional[str]:
        """Submit one entry; ``on_durable(key, latency)`` fires at finality."""
        self._seq += 1
        tx = Transaction(
            sender=self.sender,
            contract=self.contract,
            method="put",
            args={"key": key, "value": value},
            seq=self._seq,
            tx_id=self.node.sim.new_id("tx"),
        ).sign(self.signing_key)
        if not self.node.submit_transaction(tx):
            self.rejected += 1
            return None
        self.stored += 1
        self._pending[tx.tx_id] = (key, self.node.sim.now, on_durable)
        return tx.tx_id

    def _settle(self) -> None:
        done = [tx_id for tx_id in self._pending if self.node.chain.is_final(tx_id)]
        for tx_id in done:
            key, submitted_at, on_durable = self._pending.pop(tx_id)
            latency = self.node.sim.now - submitted_at
            self.durable_latencies.append(latency)
            if on_durable is not None:
                on_durable(key, latency)

    def get(self, key: str) -> Optional[Any]:
        """Read back from replicated contract state."""
        return self.node.chain.state_of(self.contract)["data"].get(key)

    def pending_count(self) -> int:
        return len(self._pending)
