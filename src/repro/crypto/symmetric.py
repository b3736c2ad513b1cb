"""Authenticated symmetric encryption (encrypt-then-MAC).

The Logging Interface shares a federation-wide symmetric key ``K`` and uses
it to encrypt log payloads before they are written to the blockchain, since
on-chain data is readable by every participant.

Construction (stdlib-only, as the environment has no AES package):

- key material is expanded into an *encryption key* and a *MAC key* via
  domain-separated SHA-256;
- the keystream is ``SHA256(enc_key || nonce || counter)`` blocks XORed over
  the plaintext (a standard PRF-in-CTR-mode stream cipher);
- integrity comes from HMAC-SHA-256 over ``nonce || ciphertext``
  (encrypt-then-MAC), verified in constant time before decryption.

This provides the IND-CPA + INT-CTXT interface the paper assumes of its
symmetric layer; swapping in AES-GCM would be a one-file change.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass

from repro.common.errors import CryptoError

_BLOCK = 32  # SHA-256 output size
NONCE_SIZE = 16
KEY_SIZE = 32


@dataclass(frozen=True)
class EncryptedBlob:
    """Nonce, ciphertext and MAC tag; the on-chain representation of a log."""

    nonce: bytes
    ciphertext: bytes
    tag: str

    def to_dict(self) -> dict:
        return {"nonce": self.nonce.hex(), "ciphertext": self.ciphertext.hex(), "tag": self.tag}

    @classmethod
    def from_dict(cls, data: dict) -> "EncryptedBlob":
        try:
            tag = data["tag"]
            bytes.fromhex(tag)  # a MAC is written as hex; anything else never verifies
            return cls(
                nonce=bytes.fromhex(data["nonce"]),
                ciphertext=bytes.fromhex(data["ciphertext"]),
                tag=tag,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CryptoError(f"malformed encrypted blob: {exc}") from exc

    def size_bytes(self) -> int:
        return len(self.nonce) + len(self.ciphertext) + len(self.tag) // 2


class SymmetricKey:
    """The federation key ``K`` held by every Logging Interface."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
        self._key = key
        self._enc_key = hashlib.sha256(b"enc|" + key).digest()
        self._mac_key = hashlib.sha256(b"mac|" + key).digest()

    @classmethod
    def generate(cls, entropy: bytes | None = None) -> "SymmetricKey":
        """Generate a fresh key; deterministic if ``entropy`` is supplied."""
        if entropy is not None:
            return cls(hashlib.sha256(b"keygen|" + entropy).digest())
        return cls(os.urandom(KEY_SIZE))

    def fingerprint(self) -> str:
        """Public identifier of the key (safe to log)."""
        return hashlib.sha256(b"fp|" + self._key).hexdigest()[:16]

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the keystream, as one big-integer operation."""
        stream = b"".join(
            hashlib.sha256(self._enc_key + nonce + counter.to_bytes(8, "big")).digest()
            for counter in range((len(data) + _BLOCK - 1) // _BLOCK)
        )
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[: len(data)], "big")
        return mixed.to_bytes(len(data), "big")

    def derive_nonce(self, plaintext: bytes, context: bytes = b"") -> bytes:
        """SIV-style synthetic nonce: a PRF of the plaintext (and context).

        Deterministic encryption makes simulation runs exactly reproducible
        from their seed, which random nonces silently broke.  The only
        leakage is plaintext *equality* under the same key and context —
        information DRAMS already publishes on-chain through the payload
        hash commitments the monitor contract matches on.
        """
        material = hmac.new(
            self._mac_key, b"nonce|" + context + b"|" + plaintext, hashlib.sha256
        ).digest()
        return material[:NONCE_SIZE]

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> EncryptedBlob:
        """Encrypt and authenticate ``plaintext``.

        A caller-supplied nonce must never repeat for the same key (or be
        synthesised via :meth:`derive_nonce`); when omitted a random nonce
        is drawn.
        """
        if nonce is None:
            nonce = os.urandom(NONCE_SIZE)
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        ciphertext = self._xor_keystream(nonce, plaintext)
        tag = hmac.new(self._mac_key, nonce + ciphertext, hashlib.sha256).hexdigest()
        return EncryptedBlob(nonce=nonce, ciphertext=ciphertext, tag=tag)

    def decrypt(self, blob: EncryptedBlob) -> bytes:
        """Verify the MAC then decrypt; raises :class:`CryptoError` on tamper."""
        expected = hmac.new(self._mac_key, blob.nonce + blob.ciphertext, hashlib.sha256).hexdigest()
        if not hmac.compare_digest(expected, blob.tag):
            raise CryptoError("MAC verification failed: ciphertext was tampered with")
        return self._xor_keystream(blob.nonce, blob.ciphertext)
