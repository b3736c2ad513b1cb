"""A propagation-fed PRP replica.

One :class:`PrpReplica` sits next to each policy consumer (a PDP shard,
the Analyser) when the federation deploys a
:class:`~repro.policydist.plane.ReplicatedPrpPlane`.  It is read-only from
the consumer's side — local ``publish`` is rejected, versions arrive as
*records* (:meth:`~repro.accesscontrol.prp.PolicyVersion.to_record`)
delivered by the distribution plane — and append-only like its base class,
so everything downstream (decision caches bound via ``on_publish``, the
Analyser's version history) works unchanged against a replica.

Delivery is tolerant of the federation network's realities:

- **out-of-order** records (propagation jitter reorders publishes) are
  staged until the gap closes, so listeners always observe versions in
  order;
- **duplicate** records (anti-entropy re-delivers what the direct publish
  already brought) are ignored;
- **tampered** records are rejected: the fingerprint travels with the
  document, and a record whose document does not hash back to its claimed
  fingerprint raises — altering a policy in flight is detectable, which
  pushes the attacker to compromise the replica itself (the
  ``TamperedPrpReplicaAttack`` threat, caught downstream by the Analyser's
  fingerprint audit).

``frozen`` is the threat-model hook for a *suppressed* replica: a
compromised replica that silently stops applying new versions keeps
serving the superseded policy (the ``StalePolicyReplayAttack``).  The
monitor catches this through version-stamped decisions, not through the
replica itself.
"""

from __future__ import annotations

from repro.accesscontrol.prp import PolicyRetrievalPoint, PolicyVersion
from repro.common.errors import ValidationError


def check_record(record) -> int:
    """The version of a well-formed policy record; raises :class:`ValidationError` otherwise.

    Well formed: an object with an integer ``version``, an object
    ``document``, a string ``fingerprint`` and, if present, a numeric
    ``published_at``.  :meth:`PrpReplica.apply_record` verifies the
    fingerprint itself.
    """
    try:
        float(record.get("published_at", 0.0))
        version = record["version"]
        document, fingerprint = record["document"], record["fingerprint"]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed policy record: {exc!r}") from exc
    if not (type(version) is int and isinstance(document, dict) and isinstance(fingerprint, str)):
        raise ValidationError("malformed policy record: a field of the wrong type")
    return version


class PrpReplica(PolicyRetrievalPoint):
    """Read-only PRP view, fed by the policy distribution plane."""

    def __init__(self, origin_id: str, consumer: str = "") -> None:
        super().__init__()
        self.origin_id = origin_id
        self.consumer = consumer
        #: Threat hook: a frozen replica silently drops every delivery and
        #: keeps serving its last-applied version (stale-policy replay).
        self.frozen = False
        self.records_applied = 0
        self.records_staged = 0
        self.records_duplicate = 0
        self._staged: dict[int, PolicyVersion] = {}

    # -- consumer side ----------------------------------------------------------

    def publish(self, document: dict, publisher: str, published_at: float = 0.0) -> PolicyVersion:
        raise ValidationError(
            f"PRP replica {self.consumer or self.origin_id!r} is read-only; "
            "publish through the PAP against the distribution plane's "
            "authority store"
        )

    def version_vector(self) -> dict[str, int]:
        """What this replica has applied, keyed by origin store.

        With a single authoritative publisher the vector degenerates to
        one counter; anti-entropy pulls send it so the origin can compute
        exactly the missing suffix.
        """
        return {self.origin_id: self.version_count()}

    # -- distribution side --------------------------------------------------------

    def apply_record(self, record: dict) -> bool:
        """Install one delivered version record; returns True if the head moved.

        Validates the fingerprint, stages out-of-order deliveries and
        drains the stage in version order, so ``on_publish`` listeners
        (decision-cache flushes, the Analyser's history) observe the same
        ordered sequence a single store would have produced.  Raises
        :class:`ValidationError` for a malformed record
        (:func:`check_record`) or a failed fingerprint check.
        """
        if self.frozen:
            return False
        number = check_record(record)
        document = record["document"]
        claimed = record["fingerprint"]
        if number <= self.version_count():
            self.records_duplicate += 1
            return False
        version = PolicyVersion(
            version=number,
            document=dict(document),
            published_at=float(record.get("published_at", 0.0)),
            publisher=str(record.get("publisher", "")),
        )
        if version.fingerprint != claimed:
            raise ValidationError(
                f"policy record for version {number} failed its fingerprint "
                f"check (claimed {claimed[:12]}, computed "
                f"{version.fingerprint[:12]}): document altered in flight"
            )
        self._staged[number] = version
        self.records_staged += 1
        moved = False
        while self.version_count() + 1 in self._staged:
            self._install(self._staged.pop(self.version_count() + 1))
            self.records_applied += 1
            moved = True
        return moved

    def lose_staged(self) -> int:
        """Drop the in-memory staging buffer (process crash); returns count.

        Staged records are out-of-order deliveries waiting for their gap
        to close — pure process memory, unlike the applied history, which
        models the consumer's durable store.  The fault plane calls this
        on a replica-host crash; anti-entropy re-fetches whatever was
        lost, so convergence is delayed, never broken.
        """
        lost = len(self._staged)
        self._staged.clear()
        return lost

    def stats(self) -> dict:
        return {
            "consumer": self.consumer,
            "versions": self.version_count(),
            "head_fingerprint": (self.current().fingerprint if self.version_count() else ""),
            "applied": self.records_applied,
            "staged_waiting": len(self._staged),
            "duplicates": self.records_duplicate,
            "frozen": self.frozen,
        }
