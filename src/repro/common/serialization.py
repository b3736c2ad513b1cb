"""Canonical serialization used for hashing and on-chain storage.

The whole monitoring pipeline relies on *hash commitments*: a probe in one
tenant hashes the payload it saw, and the smart contract compares that hash
with the one produced in another tenant.  For that to work the encoding must
be a pure function of the logical value:

- dictionary keys are emitted in sorted order,
- no insignificant whitespace,
- only JSON-representable primitives are accepted (no floats with NaN/inf,
  no arbitrary objects) so that equality of encodings equals logical
  equality.

Dataclasses and tuples are normalised (to dicts and lists respectively)
before encoding, which keeps call sites pleasant without compromising
canonicity.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from typing import Any

from repro.common.errors import SerializationError

def _normalise(value: Any) -> Any:
    """Reduce ``value`` to plain JSON-compatible data, or raise."""
    # Exact-type fast path for the overwhelmingly common cases (the
    # monitoring pipeline encodes mostly flat dicts of str/int/float);
    # subclasses (enums, dataclasses, bools-as-ints) take the full chain
    # below, whose semantics this short-circuit preserves bit for bit.
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"dict key must be str, got {type(key).__name__}")
            out[key] = _normalise(item)
        return out
    if kind is list:
        return [_normalise(item) for item in value]
    if isinstance(value, bool) or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise SerializationError(f"non-finite float not serializable: {value!r}")
        return value
    if isinstance(value, Enum):
        return _normalise(value.value)
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": value.hex()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _normalise(dataclasses.asdict(value))
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"dict key must be str, got {type(key).__name__}")
            out[key] = _normalise(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    if isinstance(value, (set, frozenset)):
        normalised = [_normalise(item) for item in value]
        try:
            return sorted(normalised, key=lambda x: json.dumps(x, sort_keys=True))
        except TypeError as exc:  # pragma: no cover - defensive
            raise SerializationError(f"unsortable set contents: {value!r}") from exc
    raise SerializationError(f"value of type {type(value).__name__} is not serializable")


def canonical_json(value: Any) -> str:
    """Return the canonical JSON text of ``value``.

    The encoding is deterministic: equal logical values always produce
    byte-identical text, independent of dict insertion order or whether the
    value arrived as a dataclass, tuple or plain dict.
    """
    return json.dumps(_normalise(value), sort_keys=True, separators=(",", ":"))


def canonical_bytes(value: Any) -> bytes:
    """Return the canonical UTF-8 encoding of ``value`` (for hashing)."""
    return canonical_json(value).encode("utf-8")


def merged_length(a: int, b: int) -> int:
    """Encoded length of the merge of two canonical objects with disjoint keys, from theirs.

    The merge drops one pair of braces and adds one comma, unless one side is ``{}``.
    """
    return a + b - (2 if 2 in (a, b) else 1)


def from_json(text: str) -> Any:
    """Parse JSON text produced by :func:`canonical_json`.

    ``bytes`` values round-trip through the ``{"__bytes__": hex}`` envelope.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return _revive(raw)


def _revive(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {"__bytes__"} and isinstance(value["__bytes__"], str):
            try:
                return bytes.fromhex(value["__bytes__"])
            except ValueError as exc:
                raise SerializationError("malformed __bytes__ envelope") from exc
        return {key: _revive(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_revive(item) for item in value]
    return value
