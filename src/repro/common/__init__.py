"""Shared substrate: canonical serialization, identifiers, errors, RNG.

Every other subpackage builds on these primitives.  Canonical JSON
serialization in particular underpins all hashing in the system: two
components that serialize the same logical value must obtain byte-identical
encodings, otherwise hash commitments stored on the blockchain would never
match across tenants.
"""

from repro.common.errors import (
    ReproError,
    SerializationError,
    ValidationError,
    ConfigError,
)
from repro.common.serialization import canonical_json, canonical_bytes, from_json
from repro.common.ids import short_hash, correlation_id
from repro.common.rng import SeededRng

__all__ = [
    "ReproError",
    "SerializationError",
    "ValidationError",
    "ConfigError",
    "canonical_json",
    "canonical_bytes",
    "from_json",
    "short_hash",
    "correlation_id",
    "SeededRng",
]
