"""Blocks and headers.

The header commits to the parent hash, a Merkle root over the transaction
content hashes, the mining difficulty, timestamp and nonce; the block hash
is the SHA-256 of the canonical header encoding.  Miners additionally sign
blocks (a permissioned-chain touch: every block is attributable to a
federation node).

The header hash is memoised against the exact field values it was
computed from (so in-place header edits — mining sets the Merkle root and
nonce after construction, the fork-choice tests forge fields deliberately —
always invalidate it), and the Merkle root / body size reuse the
transactions' frozen content hashes and sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import CryptoError, ValidationError
from repro.common.serialization import canonical_bytes, canonical_json, merged_length
from repro.crypto.hashing import sha256_hex
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import Signature, SigningKey, VerifyingKey
from repro.blockchain.transaction import Transaction


@dataclass
class BlockHeader:
    """Consensus-critical block metadata."""

    height: int
    prev_hash: str
    merkle_root: str
    timestamp: float
    difficulty_bits: float
    miner: str
    nonce: int = 0

    def bytes_for_nonce(self, nonce: int) -> bytes:
        """Canonical header bytes with ``nonce`` substituted (for grinding).

        Numeric fields are coerced to float so the encoding is identical
        before and after a serialization round-trip (canonical JSON
        distinguishes ``10`` from ``10.0``).
        """
        return canonical_bytes(
            {
                "height": int(self.height),
                "prev_hash": self.prev_hash,
                "merkle_root": self.merkle_root,
                "timestamp": float(self.timestamp),
                "difficulty_bits": float(self.difficulty_bits),
                "miner": self.miner,
                "nonce": int(nonce),
            }
        )

    def nonce_parts(self) -> tuple[bytes, bytes]:
        """``(prefix, suffix)`` such that ``prefix + str(n) + suffix`` equals
        :meth:`bytes_for_nonce` for every nonce ``n``.

        Canonical JSON emits keys in sorted order, so the keys before and
        after ``"nonce"`` are fixed; grinding then hashes two constant byte
        strings around the changing nonce instead of re-rendering the whole
        header per attempt (pinned to :meth:`bytes_for_nonce` by property
        tests).
        """
        head = canonical_json(
            {
                "difficulty_bits": float(self.difficulty_bits),
                "height": int(self.height),
                "merkle_root": self.merkle_root,
                "miner": self.miner,
            }
        )
        tail = canonical_json(
            {
                "prev_hash": self.prev_hash,
                "timestamp": float(self.timestamp),
            }
        )
        prefix = head[:-1] + ',"nonce":'
        suffix = "," + tail[1:]
        return prefix.encode("utf-8"), suffix.encode("utf-8")

    def _hash_key(self) -> tuple:
        return (
            self.height,
            self.prev_hash,
            self.merkle_root,
            self.timestamp,
            self.difficulty_bits,
            self.miner,
            self.nonce,
        )

    def block_hash(self) -> str:
        key = self._hash_key()
        memo = getattr(self, "_hash_memo", None)
        if memo is not None and memo[0] == key:
            return memo[1]
        digest = sha256_hex(self.bytes_for_nonce(self.nonce))
        self._hash_memo = (key, digest)
        return digest

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash,
            "merkle_root": self.merkle_root,
            "timestamp": self.timestamp,
            "difficulty_bits": self.difficulty_bits,
            "miner": self.miner,
            "nonce": self.nonce,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BlockHeader":
        try:
            names = [data[name] for name in ("prev_hash", "merkle_root", "miner")]
            if not all(isinstance(name, str) for name in names):
                raise TypeError("prev_hash, merkle_root and miner must be strings")
            return cls(
                height=int(data["height"]),
                prev_hash=data["prev_hash"],
                merkle_root=data["merkle_root"],
                timestamp=float(data["timestamp"]),
                difficulty_bits=float(data["difficulty_bits"]),
                miner=data["miner"],
                nonce=int(data["nonce"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed block header: {exc}") from exc


@dataclass
class Block:
    """A header plus its transaction body and the miner's signature."""

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)
    miner_signature: Optional[Signature] = None

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def hash(self) -> str:
        return self.header.block_hash()

    def compute_merkle_root(self) -> str:
        return MerkleTree.root_of([tx.content_hash() for tx in self.transactions])

    def body_size_bytes(self) -> int:
        return sum(tx.size_bytes() for tx in self.transactions)

    def wire_size(self) -> int:
        """``len(canonical_bytes(self.to_dict()))``, summed from the transactions' wire sizes."""
        signature = self.miner_signature.to_dict() if self.miner_signature else None
        framing = canonical_bytes({"header": self.header.to_dict(), "miner_signature": signature})
        txs = self.transactions
        body = len('{"transactions":[]}') + sum(tx.wire_size() for tx in txs) + max(len(txs) - 1, 0)
        return merged_length(len(framing), body)

    def sign(self, key: SigningKey) -> "Block":
        self.miner_signature = key.sign(self.hash.encode())
        return self

    def verify_miner_signature(self, key: VerifyingKey) -> bool:
        if self.miner_signature is None:
            return False
        return key.verify(self.hash.encode(), self.miner_signature)

    def to_dict(self) -> dict:
        return {
            "header": self.header.to_dict(),
            "transactions": [tx.to_dict() for tx in self.transactions],
            "miner_signature": self.miner_signature.to_dict() if self.miner_signature else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Block":
        """Decode the wire form; any malformed input is a :class:`ValidationError`."""
        try:
            if not isinstance(data, dict):
                raise TypeError("block must be an object")
            signature = (
                Signature.from_dict(data["miner_signature"])
                if data.get("miner_signature")
                else None
            )
            return cls(
                header=BlockHeader.from_dict(data["header"]),
                transactions=[Transaction.from_dict(tx) for tx in data["transactions"]],
                miner_signature=signature,
            )
        except (KeyError, TypeError, CryptoError) as exc:
            raise ValidationError(f"malformed block: {exc}") from exc


def make_genesis(chain_id: str, config_digest: str, difficulty_bits: float) -> Block:
    """The deterministic genesis block all nodes of a chain agree on."""
    header = BlockHeader(
        height=0,
        prev_hash="0" * 64,
        merkle_root=MerkleTree([]).root,
        timestamp=0.0,
        difficulty_bits=difficulty_bits,
        miner=f"genesis:{chain_id}:{config_digest}",
        nonce=0,
    )
    return Block(header=header, transactions=[])
