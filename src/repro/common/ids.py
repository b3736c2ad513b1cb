"""Content-derived identifiers.

Ids derived from content (correlation ids, hash-based ids) are
deterministic by construction.  Minted ids are not made here: a run's
:class:`~repro.simnet.simulator.Simulator` mints them
(:meth:`~repro.simnet.simulator.Simulator.new_id`), so two runs in one
process share no id state.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.serialization import canonical_bytes


def reset_id_counter() -> None:
    """Do nothing; kept only because ``bench/`` still imports and calls it.

    There is no process-wide counter left to rewind: every simulator's
    counter starts at 1.
    """


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
