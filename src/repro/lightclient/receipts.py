"""Decision receipts: per-decision evidence a header alone can check.

A :class:`DecisionReceipt` packages everything an auditor needs to show
"my decision is on-chain and matches policy X" without holding the chain:

- the ``record_log`` transaction that carried the (encrypted) log entry,
- the Merkle inclusion proof binding that transaction into a block body,
- that block's header, and
- the policy ``(version, fingerprint)`` stamp the decision declared.

:meth:`DecisionReceipt.verify` is *offline*: its only trust input is a
header the verifier already validated (via
:class:`~repro.lightclient.headers.HeaderClient` or any other channel).
It recomputes the transaction's content hash, walks the hardened Merkle
path (``leaf_index`` bound, ``tree_size`` pinned), matches the header,
and — given the federation key — decrypts the ciphertext and checks the
plaintext against the on-chain hash commitment and the declared policy
stamp.  Total cost: ``3 + log2(block size)`` hash evaluations, against
the O(chain) replay a full-node audit performs.

Receipts serialize to plain dicts (:meth:`to_dict`/:meth:`from_dict`), so
a tenant can fetch one, archive it as JSON, and re-verify it years later
against nothing but a header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.blockchain.block import BlockHeader
from repro.blockchain.chain import Blockchain
from repro.blockchain.transaction import Transaction
from repro.common.errors import CryptoError, SerializationError, ValidationError
from repro.common.serialization import from_json
from repro.crypto.hashing import sha256_hex
from repro.crypto.merkle import MerkleProof
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.drams.contract import CONTRACT_NAME


@dataclass
class ReceiptVerification:
    """Outcome of an offline receipt check."""

    ok: bool
    reason: str
    #: Cryptographic hash evaluations this check spent (bench metric).
    hashes_verified: int
    #: Decrypted log payload, when a federation key was supplied and the
    #: ciphertext checked out.
    payload: Optional[dict] = None


@dataclass
class DecisionReceipt:
    """Self-contained, offline-verifiable proof of one monitored log entry."""

    correlation_id: str
    entry_type: str
    tx: Transaction
    proof: MerkleProof
    header: BlockHeader
    tree_size: int
    #: Decrypted log payload; populated by a successful :meth:`verify`
    #: with the federation key (never trusted as an input).
    payload: Optional[dict] = None

    # -- stamps ----------------------------------------------------------------

    @property
    def block_hash(self) -> str:
        return self.header.block_hash()

    @property
    def policy_version(self) -> int:
        return int(self.tx.args.get("policy_version", 0))

    @property
    def policy_fingerprint(self) -> str:
        return str(self.tx.args.get("policy_fingerprint", ""))

    @property
    def policy_stamp(self) -> tuple[int, str]:
        """The declared ``(version, fingerprint)`` provenance of the decision."""
        return (self.policy_version, self.policy_fingerprint)

    # -- verification ----------------------------------------------------------

    def verify(self, trusted_header: Optional[BlockHeader],
               federation_key: Optional[SymmetricKey] = None,
               expected_stamp: Optional[tuple[int, str]] = None,
               ) -> ReceiptVerification:
        """Check the receipt against a header the caller already trusts.

        Verification never takes the receipt's word for anything
        derivable: the Merkle leaf is recomputed from the transaction
        bytes, the root from the hardened proof path, the header hash
        from the header fields, and (with ``federation_key``) the payload
        commitment from the decrypted plaintext.  ``expected_stamp``
        additionally pins the policy provenance the auditor expects.
        """
        hashes = 0
        args = self.tx.args
        if self.tx.contract != CONTRACT_NAME or self.tx.method != "record_log":
            return ReceiptVerification(False, "not-a-monitor-log-tx", hashes)
        if (args.get("correlation_id") != self.correlation_id
                or args.get("entry_type") != self.entry_type):
            return ReceiptVerification(False, "tx-coordinates-mismatch", hashes)
        hashes += 1  # leaf: the transaction's content hash
        if self.proof.leaf != self.tx.content_hash():
            return ReceiptVerification(False, "leaf-commitment-mismatch", hashes)
        hashes += len(self.proof.path)
        if not self.proof.verify(self.header.merkle_root, tree_size=self.tree_size):
            return ReceiptVerification(False, "inclusion-proof-invalid", hashes)
        hashes += 1  # header hash vs the trusted chain view
        if (trusted_header is None
                or self.header.block_hash() != trusted_header.block_hash()):
            return ReceiptVerification(False, "header-not-on-verified-chain", hashes)
        payload: Optional[dict] = None
        if federation_key is not None:
            ciphertext = args.get("ciphertext")
            if not isinstance(ciphertext, dict):
                return ReceiptVerification(False, "ciphertext-missing", hashes)
            try:
                plaintext = federation_key.decrypt(EncryptedBlob.from_dict(ciphertext))
            except (CryptoError, ValidationError):
                return ReceiptVerification(False, "ciphertext-tampered", hashes)
            hashes += 1  # plaintext vs the on-chain hash commitment
            if sha256_hex(plaintext) != args.get("payload_hash"):
                return ReceiptVerification(False, "payload-commitment-mismatch", hashes)
            try:
                payload = from_json(plaintext.decode("utf-8"))
                declared = payload.get("policy_fingerprint", "")
                stamp = (int(payload.get("policy_version", 0)), declared)
            except (
                SerializationError,
                UnicodeDecodeError,
                AttributeError,
                TypeError,
                ValueError,
                OverflowError,
            ):
                # Committed correctly, but not a log payload.
                return ReceiptVerification(False, "payload-malformed", hashes)
            if (declared or self.policy_fingerprint) and stamp != self.policy_stamp:
                return ReceiptVerification(False, "policy-stamp-mismatch", hashes)
            self.payload = payload
        if expected_stamp is not None and self.policy_stamp != tuple(expected_stamp):
            return ReceiptVerification(False, "unexpected-policy-stamp", hashes)
        return ReceiptVerification(True, "ok", hashes, payload)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "correlation_id": self.correlation_id,
            "entry_type": self.entry_type,
            "tx": self.tx.to_dict(),
            "proof": self.proof.to_dict(),
            "header": self.header.to_dict(),
            "tree_size": self.tree_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionReceipt":
        """Raises :class:`ValidationError`, and nothing else, for a malformed receipt."""
        try:
            correlation_id, entry_type = data["correlation_id"], data["entry_type"]
            if not (isinstance(correlation_id, str) and isinstance(entry_type, str)):
                raise TypeError("correlation_id and entry_type must be strings")
            return cls(
                correlation_id=correlation_id,
                entry_type=entry_type,
                tx=Transaction.from_dict(data["tx"]),
                proof=MerkleProof.from_dict(data["proof"]),
                header=BlockHeader.from_dict(data["header"]),
                tree_size=int(data["tree_size"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed decision receipt: {exc}") from exc


def monitor_tx_resolver(chain: Blockchain) -> Callable[[dict], Optional[str]]:
    """Resolver mapping monitor-contract coordinates to transaction ids.

    Installed as ``BlockchainNode.tx_resolver`` so ``bc_proof_request``
    messages may name a ``(correlation_id, entry_type)`` pair — the only
    coordinates a PEP-side auditor naturally knows — instead of a tx id.
    Resolution reads the record's stored ``tx_id`` stamp, so it is O(1),
    not a chain scan.
    """

    def resolve(payload: dict) -> Optional[str]:
        correlation_id = payload.get("correlation_id")
        entry_type = payload.get("entry_type")
        if not correlation_id or not entry_type:
            return None
        state: dict[str, Any] = chain.state_of(CONTRACT_NAME)
        record = state.get("records", {}).get(correlation_id)
        if record is None:
            return None
        entry = record.get("entries", {}).get(entry_type)
        if entry is None:
            return None
        return entry.get("tx_id")

    return resolve
