"""Schnorr signatures over a Schnorr group (stdlib-only).

Blockchain transactions are signed by the submitting Logging Interface, and
blocks are signed by the miner, so the monitoring audit trail is
non-repudiable (a compromised component cannot forge another component's log
submissions without its private key).

We use the classic Schnorr identification-turned-signature scheme over a
DSA-style group (1024-bit modulus, 160-bit prime-order subgroup) with
deterministic per-message nonces derived RFC-6979-style (no RNG dependence,
no nonce-reuse risk).  This is real, verifiable public-key cryptography —
not a mock — while staying inside the stdlib.  The 1024/160 parameter size
trades security margin for simulation throughput; the scheme and code are
parameter-agnostic, so swapping in a larger group is a constants change.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass

from repro.common.errors import CryptoError

# Deterministically generated Schnorr group (see tools/gen_group.py):
# q is the first 160-bit probable prime from the SHA-256 stream
# "drams-group-<i>"; p = q*k + 1 is the first 1024-bit probable prime built
# from the same stream; g = 2^((p-1)/q) mod p generates the order-q
# subgroup.  Verified: p, q pass 40 Miller-Rabin rounds; g^q == 1 (mod p).
_P = int(
    "dc677600289551c0e35aca8028267f905639080950edee5165cbb3d94db4583f"
    "6e14c631631325186abd860da4b535d8e8b13765e4a4477a76cdbad52a594bed"
    "b1d9780a788ef3ce815a84b5537474664902b801ef9e42e0cfb1db09f3d44d6d"
    "c32ecb40735d4f1b6afb561b94f80fa6ead3d1c90eb5e55e7367d4b8c8098533",
    16,
)
_Q = int("de912c6cecc6551987f4c869db984a130eb5ed67", 16)
_G = int(
    "da3cccdd651c246ce97de254c5563144eed419a423acc602574a5f64b4742666"
    "92339bff03482aeb07860d071343192347063cc8ddd583973e3ff5b705bf7a6a"
    "0326d803944ab1a583b74420deeecd251278df8ed5c88d9fd5085f0ed514695e"
    "d9d6b5e176f2c73ee40327d4789523cdca73387ad244cf4ee348b89611b68524",
    16,
)


def _hash_to_int(*parts: bytes) -> int:
    digest = hashlib.sha256(b"|".join(parts)).digest()
    return int.from_bytes(digest, "big")


# -- fixed-base exponentiation cache -------------------------------------------
#
# Every exponentiation in the scheme uses a *fixed* base — the generator g
# or a long-lived public key y — with exponents below q < 2**160.  Windowed
# powers of such a base, precomputed once, turn each exponentiation into one
# modular multiplication per window (no squarings): 20 for g, whose table the
# process shares, 40 for a key, whose table pays for itself over the ~50
# verifications a key sees in a run and is shared by every key object of that
# value (the 256 latest, ≈ 28 MiB at most).  Results are bit-identical to ``pow``;
# exponents of 160 bits or more (forged signatures carry any e) fall back to it.

_EXP_BITS = _Q.bit_length()
_G_WINDOW = 8
_KEY_WINDOW = 4


def _fixed_base_table(base: int, window: int) -> list[list[int]]:
    """``table[i][d] == base ** (d << (window * i)) mod p``, covering 160 bits."""
    radix = 1 << window
    table = []
    b = base % _P
    for _ in range(-(-_EXP_BITS // window)):
        row = [1] * radix
        for d in range(1, radix):
            row[d] = row[d - 1] * b % _P
        table.append(row)
        b = row[radix - 1] * b % _P
    return table


def _fixed_base_pow(base: int, table: list[list[int]], exp: int) -> int:
    if exp < 0 or exp >> _EXP_BITS:
        return pow(base, exp, _P)
    mask = len(table[0]) - 1
    window = mask.bit_length()
    acc = 1
    for row in table:
        d = exp & mask
        if d:
            acc = acc * row[d] % _P
        exp >>= window
    return acc


_G_TABLE: list[list[int]] | None = None


def _g_pow(exp: int) -> int:
    """``g ** exp mod p`` through the shared generator table, built at first use."""
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = _fixed_base_table(_G, _G_WINDOW)
    return _fixed_base_pow(_G, _G_TABLE, exp)


@functools.lru_cache(maxsize=256)
def _key_table(y: int) -> list[list[int]]:
    """The fixed-base table of public key ``y``, shared by value across key objects."""
    return _fixed_base_table(y, _KEY_WINDOW)


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(challenge e, response s)``."""

    e: int
    s: int

    def to_dict(self) -> dict:
        return {"e": hex(self.e), "s": hex(self.s)}

    @classmethod
    def from_dict(cls, data: dict) -> "Signature":
        try:
            return cls(e=int(data["e"], 16), s=int(data["s"], 16))
        except (KeyError, ValueError, TypeError) as exc:
            raise CryptoError(f"malformed signature: {exc}") from exc


@dataclass(frozen=True)
class VerifyingKey:
    """Public key ``y = g^x mod p``."""

    y: int

    def key_id(self) -> str:
        """Short stable identifier for logs and registries."""
        return hashlib.sha256(hex(self.y).encode()).hexdigest()[:16]

    def _y_pow(self, exp: int) -> int:
        """``y ** exp mod p`` through the table shared by every key object of this value."""
        return _fixed_base_pow(self.y, _key_table(self.y), exp)

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Check ``e == H(g^s * y^e mod p || message)``."""
        if not (0 < signature.s < _Q) or signature.e <= 0:
            return False
        r = (_g_pow(signature.s) * self._y_pow(signature.e)) % _P
        expected = _hash_to_int(hex(r).encode(), message) % _Q
        return expected == signature.e

    def to_dict(self) -> dict:
        return {"y": hex(self.y)}

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyingKey":
        try:
            return cls(y=int(data["y"], 16))
        except (KeyError, ValueError, TypeError) as exc:
            raise CryptoError(f"malformed verifying key: {exc}") from exc


class SigningKey:
    """Private Schnorr key; create with :meth:`generate` or from a seed."""

    def __init__(self, x: int) -> None:
        if not 0 < x < _Q:
            raise CryptoError("private exponent out of range")
        self._x = x
        self.public = VerifyingKey(y=pow(_G, x, _P))

    @classmethod
    def generate(cls, seed: bytes) -> "SigningKey":
        """Deterministically derive a key from seed material.

        Simulation components derive their identity keys from the run seed
        so experiments are reproducible end to end.
        """
        x = _hash_to_int(b"signing-key", seed) % _Q
        if x == 0:
            x = 1
        return cls(x)

    def _nonce(self, message: bytes) -> int:
        """Deterministic nonce (RFC-6979 flavoured): HMAC(x, message)."""
        key = self._x.to_bytes((_Q.bit_length() + 7) // 8, "big")
        k = int.from_bytes(hmac.new(key, b"nonce|" + message, hashlib.sha256).digest(), "big") % _Q
        return k if k != 0 else 1

    def sign(self, message: bytes) -> Signature:
        """Produce a Schnorr signature over ``message``."""
        k = self._nonce(message)
        r = _g_pow(k)
        e = _hash_to_int(hex(r).encode(), message) % _Q
        if e == 0:
            e = 1
        s = (k - self._x * e) % _Q
        return Signature(e=e, s=s)
