"""Cryptographic primitives, stdlib-only.

The paper's Logging Interface encrypts log entries with a federation-wide
symmetric key K before storing them on the (publicly readable) blockchain,
and the Discussion proposes a TPM to protect K and attest off-chain
components.  We implement:

- :mod:`repro.crypto.hashing` — SHA-256 helpers and hash chaining,
- :mod:`repro.crypto.symmetric` — encrypt-then-MAC AEAD built from
  SHA-256-CTR + HMAC (AES is unavailable without third-party packages; the
  interface and security role are the same),
- :mod:`repro.crypto.merkle` — Merkle trees with inclusion proofs (block
  bodies, hybrid-storage anchors),
- :mod:`repro.crypto.signatures` — Schnorr signatures over a
  Schnorr-group (node identity, transaction authentication),
- :mod:`repro.crypto.keystore` / :mod:`repro.crypto.tpm` — key management
  and the simulated trusted platform module.
"""

from repro.crypto.hashing import sha256_hex, hash_value, hmac_hex
from repro.crypto.symmetric import SymmetricKey, EncryptedBlob
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.signatures import SigningKey, VerifyingKey, Signature
from repro.crypto.keystore import KeyStore
from repro.crypto.tpm import SimulatedTpm, AttestationReport

__all__ = [
    "sha256_hex",
    "hash_value",
    "hmac_hex",
    "SymmetricKey",
    "EncryptedBlob",
    "MerkleTree",
    "MerkleProof",
    "SigningKey",
    "VerifyingKey",
    "Signature",
    "KeyStore",
    "SimulatedTpm",
    "AttestationReport",
]
