"""Signed contract-invoking transactions.

A transaction is a call ``contract.method(args)`` submitted by a federation
component (usually a Logging Interface writing a log entry).  Transactions
are Schnorr-signed by the sender; nodes reject invalid signatures, which is
what makes the on-chain audit trail non-repudiable.

The canonical encoding of the signed content is a pure function of
``(sender, contract, method, args, seq, tx_id)``, and every consumer —
signing, signature checks, the content hash used as the Merkle leaf, the
size accounting in mempools and block assembly — needs exactly those bytes.
The encoding is frozen on first use; the covered fields must then be
treated as immutable.
Use :meth:`Transaction.replace` to derive a modified transaction (including
tampered ones in the threat experiments) — it returns a fresh instance with
fresh caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import CryptoError, ValidationError
from repro.common.serialization import canonical_bytes, merged_length
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import Signature, SigningKey, VerifyingKey

#: Flat size charged for an attached signature (two ~160-bit hex ints plus
#: framing) — kept identical to the seed accounting.
SIGNATURE_OVERHEAD_BYTES = 160


@dataclass
class Transaction:
    """A contract invocation recorded on chain.

    ``sender`` is the stable component id (e.g. ``"li-tenant-1"``); nodes
    look its verifying key up in their registry.  ``seq`` is a per-sender
    sequence number providing replay protection.
    """

    sender: str
    contract: str
    method: str
    args: dict[str, Any]
    seq: int
    tx_id: str
    submitted_at: float = 0.0
    signature: Optional[Signature] = None

    def _signed_fields(self) -> dict:
        """The signed content but ``args``."""
        return {
            "sender": self.sender,
            "contract": self.contract,
            "method": self.method,
            "seq": self.seq,
            "tx_id": self.tx_id,
        }

    def signing_payload(self) -> bytes:
        """The bytes covered by the signature (everything but the signature)."""
        payload = getattr(self, "_payload_cache", None)
        if payload is None:
            payload = canonical_bytes({**self._signed_fields(), "args": self.args})
            self._payload_cache = payload
        return payload

    def args_size(self) -> int:
        """Canonical length of ``args`` (charged as gas), derived from the signing payload."""
        size = getattr(self, "_args_size_cache", None)
        if size is None:
            wrapped = len(self.signing_payload()) + 1 - len(canonical_bytes(self._signed_fields()))
            size = self._args_size_cache = wrapped - len('{"args":}')
        return size

    def _unsigned_fields(self) -> dict:
        signature = self.signature.to_dict() if self.signature else None
        return {"signature": signature, "submitted_at": self.submitted_at}

    def wire_size(self) -> int:
        """``len(canonical_bytes(self.to_dict()))``: the signing payload merged with the rest.

        Memoised on the unsigned fields, which may be set after signing
        (``submit_transaction`` stamps ``submitted_at``).
        """
        key = (self.signature, repr(self.submitted_at))
        memo = getattr(self, "_wire_memo", None)
        if memo is None or memo[0] != key:
            unsigned = len(canonical_bytes(self._unsigned_fields()))
            memo = self._wire_memo = (key, merged_length(len(self.signing_payload()), unsigned))
        return memo[1]

    def sign(self, key: SigningKey) -> "Transaction":
        """Sign in place and return self (builder style)."""
        self.signature = key.sign(self.signing_payload())
        return self

    def verify(self, key: VerifyingKey) -> bool:
        if self.signature is None:
            return False
        return key.verify(self.signing_payload(), self.signature)

    def content_hash(self) -> str:
        """Hash of the signed content; used as the Merkle leaf for the block body.

        Equals ``hash_value(signed content)``: the hash is taken over the
        same canonical bytes as the signing payload, so the cached encoding
        serves both.
        """
        digest = getattr(self, "_content_hash_cache", None)
        if digest is None:
            digest = sha256_hex(self.signing_payload())
            self._content_hash_cache = digest
        return digest

    def size_bytes(self) -> int:
        overhead = SIGNATURE_OVERHEAD_BYTES if self.signature is not None else 0
        return len(self.signing_payload()) + overhead

    def replace(self, **changes: Any) -> "Transaction":
        """Copy-on-write: a new transaction with ``changes`` applied.

        The only supported way to alter signed-over fields once a
        transaction has been hashed or signed (direct field mutation would
        desynchronise the frozen canonical encoding).  The signature is
        carried over unless overridden — deliberately, so the threat
        experiments can model content tampered *after* signing.
        """
        fields = {name: getattr(self, name) for name in self.__dataclass_fields__}
        fields["args"] = dict(self.args)
        unknown = set(changes) - set(fields)
        if unknown:
            raise ValidationError(f"unknown transaction fields: {sorted(unknown)}")
        fields.update(changes)
        return Transaction(**fields)

    def to_dict(self) -> dict:
        return {**self._signed_fields(), "args": self.args, **self._unsigned_fields()}

    @classmethod
    def from_dict(cls, data: dict) -> "Transaction":
        """Decode the wire form; any malformed input is a :class:`ValidationError`."""
        try:
            if not isinstance(data, dict) or not isinstance(data["args"], dict):
                raise TypeError("transaction and its args must be objects")
            names = [data[name] for name in ("sender", "contract", "method", "tx_id")]
            if not all(isinstance(name, str) for name in names):
                raise TypeError("sender, contract, method and tx_id must be strings")
            signature = Signature.from_dict(data["signature"]) if data.get("signature") else None
            return cls(
                sender=data["sender"],
                contract=data["contract"],
                method=data["method"],
                args=dict(data["args"]),
                seq=int(data["seq"]),
                tx_id=data["tx_id"],
                submitted_at=float(data.get("submitted_at", 0.0)),
                signature=signature,
            )
        except (KeyError, TypeError, ValueError, OverflowError, CryptoError) as exc:
            raise ValidationError(f"malformed transaction: {exc}") from exc
