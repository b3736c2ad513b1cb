"""Pending-transaction pool.

FIFO with replay protection: a transaction already included in the chain
(or already pending) is rejected by ``tx_id``, and per-sender sequence
numbers must strictly increase across included transactions.

The serialized size of a transaction is memoised on the transaction
itself (a pure function of the frozen signed content), so
:meth:`Mempool.peek` costs no serialisation per block template.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Container, Iterable, Optional

from repro.blockchain.transaction import Transaction


class Mempool:
    """Ordered pool of not-yet-included transactions."""

    def __init__(self, max_size: int = 100_000) -> None:
        self.max_size = max_size
        self._pool: "OrderedDict[str, Transaction]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pool

    def add(self, tx: Transaction) -> bool:
        """Add if unseen and capacity allows.  Returns True when accepted."""
        if tx.tx_id in self._pool or len(self._pool) >= self.max_size:
            return False
        self._pool[tx.tx_id] = tx
        return True

    def remove_all(self, tx_ids: Iterable[str]) -> None:
        """Drop transactions that made it into a block."""
        for tx_id in tx_ids:
            self._pool.pop(tx_id, None)

    def peek(
        self,
        max_txs: int,
        max_bytes: int,
        exclude: Optional[Container[str]] = None,
    ) -> list[Transaction]:
        """FIFO selection honouring block-size limits (pool is unchanged)."""
        selected: list[Transaction] = []
        total = 0
        skip = () if exclude is None else exclude
        for tx in self._pool.values():
            if tx.tx_id in skip:
                continue
            size = tx.size_bytes()
            if len(selected) >= max_txs or total + size > max_bytes:
                break
            selected.append(tx)
            total += size
        return selected

    def pending(self) -> list[Transaction]:
        return list(self._pool.values())
