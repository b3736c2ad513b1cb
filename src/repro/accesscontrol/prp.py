"""Policy Retrieval Point: versioned store of policy documents.

The PDP fetches the active policy version from here at evaluation time; the
PAP publishes new versions; the DRAMS Analyser reads the same *logical*
store to know the "policies currently in force".  Documents are the
serialized JSON form — hashing a version gives a tamper-evident policy
fingerprint that DRAMS logs alongside decisions.

Whether "the same logical store" is one in-process object or a set of
replicas fed by publish propagation is a deployment choice, made explicit
by :mod:`repro.policydist`: this class is the single-store building block,
:class:`repro.policydist.replica.PrpReplica` subclasses it into a
propagation-fed replica, and a
:class:`~repro.policydist.plane.PolicyDistributionPlane` decides who gets
which.

Reentrancy: ``publish`` notifies listeners synchronously, and a listener
that published *again* from inside its callback used to interleave version
notifications (listener lists are walked in order, so later subscribers
would observe version ``k+1`` before ``k``).  Publishing from a publish
listener is now rejected with a :class:`ValidationError` — queue the
document and publish after the notification completes instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ValidationError
from repro.crypto.hashing import hash_value


@dataclass
class PolicyVersion:
    """One published policy document with provenance."""

    version: int
    document: dict
    published_at: float
    publisher: str
    fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        self.fingerprint = hash_value(self.document)

    def to_record(self) -> dict:
        """Wire form for publish propagation (see :mod:`repro.policydist`).

        The fingerprint travels alongside the document so a receiving
        replica can prove the document was not altered in flight —
        recomputing the hash over the delivered document must reproduce it.
        """
        return {
            "version": self.version,
            "document": self.document,
            "published_at": self.published_at,
            "publisher": self.publisher,
            "fingerprint": self.fingerprint,
        }


class PolicyRetrievalPoint:
    """Append-only, versioned policy store."""

    def __init__(self) -> None:
        self._versions: list[PolicyVersion] = []
        self._listeners: list[Callable[[PolicyVersion], None]] = []
        self._notifying = False

    def publish(
        self, document: dict, publisher: str, published_at: float = 0.0
    ) -> PolicyVersion:
        """Append a new active version and notify subscribers."""
        if document.get("kind") not in ("policy", "policy_set"):
            raise ValidationError("PRP accepts serialized policy documents only")
        version = PolicyVersion(
            version=len(self._versions) + 1,
            document=document,
            published_at=published_at,
            publisher=publisher,
        )
        self._install(version)
        return version

    def _install(self, version: PolicyVersion) -> None:
        """Append ``version`` and notify listeners (reentrancy-guarded)."""
        if self._notifying:
            raise ValidationError(
                "reentrant policy publish: a publish listener may not publish "
                "from inside its notification (version ordering would "
                "interleave); queue the document and publish afterwards"
            )
        self._versions.append(version)
        self._notifying = True
        try:
            for listener in self._listeners:
                listener(version)
        finally:
            self._notifying = False

    def current(self) -> PolicyVersion:
        if not self._versions:
            raise ValidationError("no policy has been published")
        return self._versions[-1]

    def history(self) -> list[PolicyVersion]:
        return list(self._versions)

    def version_count(self) -> int:
        return len(self._versions)

    def on_publish(self, listener: Callable[[PolicyVersion], None]) -> None:
        """Subscribe to future publications (Analyser, monitors)."""
        self._listeners.append(listener)
