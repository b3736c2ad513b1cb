"""SHA-256 helpers over canonical encodings.

All content hashes in the system go through :func:`hash_value` so that the
bytes being hashed are always the canonical JSON encoding — a hash computed
by a probe in tenant A is comparable with one computed by the smart contract
replicated in tenant B.

Hot-path note: objects that are hashed repeatedly (transactions, block
headers, log entries) cache their canonical encoding and call
:func:`sha256_hex` on the frozen bytes directly; :func:`hash_value` remains
the definitional form the caches are differentially tested against.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Any

from repro.common.serialization import canonical_bytes


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def hash_value(value: Any) -> str:
    """Hex SHA-256 of the canonical encoding of any serializable value."""
    return sha256_hex(canonical_bytes(value))


def hash_pair(left: str, right: str) -> str:
    """Combine two hex digests (Merkle interior node, hash chains).

    The input is the ASCII form ``left|right`` (byte-identical to the
    historical f-string rendering; spelled as a concatenation because this
    sits in the Merkle fold's inner loop).
    """
    return sha256_hex(left.encode() + b"|" + right.encode())


def hmac_hex(key: bytes, data: bytes) -> str:
    """Hex HMAC-SHA-256 of ``data`` under ``key``."""
    return _hmac.new(key, data, hashlib.sha256).hexdigest()


def constant_time_equals(a: str, b: str) -> bool:
    """Timing-safe string comparison (MAC verification)."""
    return _hmac.compare_digest(a, b)
