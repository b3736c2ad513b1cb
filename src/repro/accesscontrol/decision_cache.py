"""LRU cache of PDP decisions keyed by policy fingerprint and request.

The PDP is the single shared component every federation access request
flows through, so repeated evaluation of identical (policy, request)
pairs is the hot path's dominant waste.  The cache keys on:

- the *policy fingerprint* — the content hash the PRP assigns each
  published version, so a policy change can never serve stale decisions;
- the *canonicalised request attributes*, projected onto the policy's
  attribute footprint (see :func:`repro.xacml.index.attribute_footprint`)
  so attributes the policy cannot read (timestamps, payload padding) do
  not fragment the key space.

Entries are LRU-bounded; hit/miss/eviction/invalidation counters feed the
fast-path benchmark.  :meth:`DecisionCache.bind` subscribes to a PRP so
every policy publication flushes the cache — fingerprint keying already
prevents stale hits, but flushing bounds memory across policy churn and
keeps the invalidation behaviour observable.

A decision plane (:mod:`repro.accesscontrol.plane`) builds one cache and
shares it between every shard it deploys or adds, so entries outlive a
shard crash and a publish flushes them once.  A :class:`PdpService` built
by hand, without a plane, builds its own.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.crypto.hashing import hash_value


def project_attributes(content: dict, footprint: Iterable[tuple[str, str]]) -> dict:
    """Restrict a serialized request context to the policy's footprint."""
    keep = footprint if isinstance(footprint, (set, frozenset)) else set(footprint)
    projected: dict = {}
    for category, attributes in content.items():
        kept = {
            attribute_id: values
            for attribute_id, values in attributes.items()
            if (category, attribute_id) in keep
        }
        if kept:
            projected[category] = kept
    return projected


class DecisionCache:
    """Bounded LRU of serialized PDP responses."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: key -> (policy fingerprint, response payload)
        self._entries: "OrderedDict[str, tuple[str, dict]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._bound_prps: list = []

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys --------------------------------------------------------------------

    @staticmethod
    def request_key(
        fingerprint: str,
        content: dict,
        footprint: Optional[Iterable[tuple[str, str]]] = None,
    ) -> str:
        """Cache key for one request under one policy version."""
        payload = content if footprint is None else project_attributes(content, footprint)
        return hash_value({"policy": fingerprint, "request": payload})

    # -- lookup ------------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Membership test without touching counters or LRU order."""
        return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return self._copy_response(entry[1])

    def put(self, key: str, fingerprint: str, response: dict) -> None:
        self._entries[key] = (fingerprint, self._copy_response(response))
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    @staticmethod
    def _copy_response(response: dict) -> dict:
        # Decisions flow into mutable AccessDecision payloads; hand out
        # copies so a consumer can never corrupt the cached entry.  The
        # nested obligation attributes must be copied too, or a consumer
        # mutating them would poison every later cache hit.
        copied = dict(response)
        copied["obligations"] = [
            {**ob, "attributes": dict(ob.get("attributes", {}))}
            for ob in response.get("obligations", [])
        ]
        return copied

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, fingerprint: Optional[str] = None) -> int:
        """Drop entries for one policy version, or everything."""
        if fingerprint is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            stale = [key for key, (entry_fp, _) in self._entries.items() if entry_fp == fingerprint]
            for key in stale:
                del self._entries[key]
            dropped = len(stale)
        self.invalidations += dropped
        return dropped

    def bind(self, prp) -> None:
        """Flush on every policy publication from ``prp``.

        Idempotent per PRP: a cache shared between several PDP services
        over one PRP registers a single flush listener.
        """
        if any(bound is prp for bound in self._bound_prps):
            return
        self._bound_prps.append(prp)
        prp.on_publish(lambda version: self.invalidate())

    # -- reporting ---------------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
