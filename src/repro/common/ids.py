"""Identifier helpers.

Identifiers must be *deterministic when derived from content* (correlation
ids, hash-based ids) and *unique when minted* (entity ids).  Minted ids use a
process-local counter plus an optional namespace rather than ``uuid4`` so
that simulation runs are reproducible under a fixed seed.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from typing import Any

from repro.common.serialization import canonical_bytes

_COUNTER = itertools.count(1)
_COUNTER_LOCK = threading.Lock()


def new_id(prefix: str = "id") -> str:
    """Mint a fresh process-unique identifier like ``"pep-17"``.

    Sequential ids keep traces and test failures readable, and make runs
    reproducible (unlike UUIDs) when the rest of the system is seeded.
    """
    with _COUNTER_LOCK:
        value = next(_COUNTER)
    return f"{prefix}-{value}"


def reset_id_counter(start: int = 1) -> None:
    """Rewind the minting counter (benchmark/test support only).

    Minted ids (transaction ids in particular) are hashed into the chain,
    so two runs can only produce bit-identical chains if they mint from
    the same counter position.  Tests and benchmarks that compare runs
    reset before each; production code must never call this.
    """
    global _COUNTER
    with _COUNTER_LOCK:
        _COUNTER = itertools.count(start)


def short_hash(value: Any, length: int = 12) -> str:
    """Deterministic short hex digest of any canonically-serializable value."""
    digest = hashlib.sha256(canonical_bytes(value)).hexdigest()
    return digest[:length]


def correlation_id(value: Any) -> str:
    """Full-width deterministic id binding all log entries of one request.

    Every probe that observes (any leg of) the same access request derives
    the same correlation id, which is what lets the monitor contract join
    log entries produced in different tenants.
    """
    return hashlib.sha256(canonical_bytes(value)).hexdigest()
