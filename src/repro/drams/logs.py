"""Access log schema.

Every access request produces (at most) four log entries, one per
monitoring point.  An entry carries:

- the *correlation id* joining all entries of one request instance,
- a *hash commitment* over the semantic payload — what the smart contract
  compares across monitoring points without needing the plaintext,
- the payload itself, encrypted under the federation key K before it
  leaves the Logging Interface (on-chain data is public to the federation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import ValidationError
from repro.common.serialization import canonical_bytes, merged_length
from repro.crypto.hashing import sha256_hex


class EntryType:
    """The four monitoring points of the PEP→PDP→PEP flow."""

    PEP_IN = "pep-in"
    PDP_IN = "pdp-in"
    PDP_OUT = "pdp-out"
    PEP_OUT = "pep-out"

    ALL = (PEP_IN, PDP_IN, PDP_OUT, PEP_OUT)

    #: Pairs whose payload hashes must agree for an untampered flow, and
    #: the mismatch alert each pair raises (see the monitor contract).
    REQUEST_LEG = (PEP_IN, PDP_IN)
    DECISION_LEG = (PDP_OUT, PEP_OUT)


@dataclass
class LogEntry:
    """One probe observation, before encryption."""

    correlation_id: str
    entry_type: str
    tenant: str
    component: str
    payload: dict[str, Any]
    observed_at: float

    def __post_init__(self) -> None:
        if self.entry_type not in EntryType.ALL:
            raise ValidationError(f"unknown log entry type: {self.entry_type!r}")

    def canonical_payload(self) -> bytes:
        """Canonical payload encoding, frozen on first use.

        The probe sizes its ``drams_log`` message around these bytes and the
        Logging Interface encrypts and hash-commits them, so the encoding is
        cached; the payload must not be mutated after the first call.
        """
        cached = getattr(self, "_payload_bytes_cache", None)
        if cached is None:
            cached = canonical_bytes(self.payload)
            self._payload_bytes_cache = cached
        return cached

    def envelope(self) -> dict:
        """The wire form but ``payload``."""
        return {
            "correlation_id": self.correlation_id,
            "entry_type": self.entry_type,
            "tenant": self.tenant,
            "component": self.component,
            "observed_at": self.observed_at,
        }

    def wire_size(self) -> int:
        """``len(canonical_bytes(self.to_dict()))``, built around the canonical payload."""
        wrapped = len('{"payload":}') + len(self.canonical_payload())
        return merged_length(wrapped, len(canonical_bytes(self.envelope())))

    def payload_hash(self) -> str:
        """Hash commitment the contract uses for cross-probe matching."""
        return sha256_hex(self.canonical_payload())

    def to_dict(self) -> dict:
        return {**self.envelope(), "payload": self.payload}

    @classmethod
    def from_dict(cls, data: dict) -> "LogEntry":
        """Decode the wire form; any malformed input is a :class:`ValidationError`."""
        try:
            names = [data[name] for name in ("correlation_id", "entry_type", "tenant", "component")]
            if not (
                all(isinstance(name, str) for name in names) and isinstance(data["payload"], dict)
            ):
                raise TypeError("a field of the wrong type")
            return cls(*names, dict(data["payload"]), float(data["observed_at"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed log entry: {exc!r}") from exc
