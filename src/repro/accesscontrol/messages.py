"""Wire messages between PEPs and the decision plane.

The *semantic payloads* (request content, decision content) are hashed by
DRAMS probes on both sides of each hop; envelope metadata (ids are minted
once and echoed, timestamps vary per hop) is deliberately excluded from
the hashed payload so honest latency never looks like tampering.

``request_id`` doubles as the idempotency key across shard retries: a PEP
failing over to another PDP replica re-sends the *same* envelope, every
replica echoes the id back in its ``ac_response``, and the PEP enforces
only the first response it receives.  Probes on different replicas that
observe the same retried request hash identical request payloads, and —
as long as both replicas evaluate under the same policy version — equal
decision payloads too, so the monitor contract sees duplicate but
consistent log entries and stays quiet.  A policy publish racing a
failover *can* make two honest replicas answer one correlation
differently; because every decision is stamped with the policy
``(version, fingerprint)`` it was evaluated under, the monitor contract
reads that as *policy churn* (two replicas, two declared policy versions)
rather than equivocation against honest replicas, and the Analyser
decides — against its own policy history and the configured staleness
bound — whether the skew was honest propagation or a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ValidationError
from repro.common.ids import correlation_id, new_id
from repro.crypto.hashing import hash_value


@dataclass
class AccessRequest:
    """An access attempt intercepted by a PEP.

    ``content`` is the serialized XACML request context;
    ``request_id`` is minted by the receiving PEP and echoed end-to-end;
    ``issued_at`` is the simulated time the subject made the attempt.
    """

    content: dict[str, Any]
    origin_tenant: str
    request_id: str = field(default_factory=lambda: new_id("req"))
    issued_at: float = 0.0

    def semantic_payload(self) -> dict:
        """What tampering would have to change — and what probes hash."""
        return {"request_id": self.request_id, "content": self.content}

    def payload_hash(self) -> str:
        return hash_value(self.semantic_payload())

    def correlation(self) -> str:
        """Monitoring correlation id: unique per request instance.

        Derived from the request id, origin and issue time, so two
        identical accesses made at different times correlate separately
        (replayed requests cannot hide under an old correlation).
        """
        return correlation_id({
            "request_id": self.request_id,
            "origin": self.origin_tenant,
            "issued_at": self.issued_at,
        })

    def to_dict(self) -> dict:
        return {
            "content": self.content,
            "origin_tenant": self.origin_tenant,
            "request_id": self.request_id,
            "issued_at": self.issued_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AccessRequest":
        """Decode a wire request; only :class:`ValidationError` escapes.

        Well formed: ``content`` maps categories to objects, ``origin_tenant``
        and ``request_id`` are strings, ``issued_at`` (if present) converts
        to a number.  Attribute values are judged at evaluation.
        """
        try:
            content, origin, request_id = data["content"], data["origin_tenant"], data["request_id"]
            issued_at = float(data.get("issued_at", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed access request: {exc!r}") from exc
        if not (
            isinstance(content, dict)
            and all(isinstance(attributes, dict) for attributes in content.values())
            and isinstance(origin, str)
            and isinstance(request_id, str)
        ):
            raise ValidationError("malformed access request: a field of the wrong type")
        return cls(dict(content), origin, request_id, issued_at)


def decision_payload(request_id: str, decision: str,
                     obligations: list[dict] | None = None,
                     policy_version: int = 0,
                     policy_fingerprint: str = "") -> dict:
    """The semantic decision content hashed at PDP-out and PEP-enforce.

    ``policy_version``/``policy_fingerprint`` declare which policy the
    evaluator claims it decided under (0/"" when no policy was published,
    or for locally fabricated decisions that never saw an evaluator).
    They are part of the hashed payload: a decision and its provenance
    travel — and commit — together, which is what lets the monitor tell
    replica version skew apart from tampering.
    """
    return {
        "request_id": request_id,
        "decision": decision,
        "obligations": obligations or [],
        "policy_version": policy_version,
        "policy_fingerprint": policy_fingerprint,
    }


@dataclass
class AccessDecision:
    """The PDP's reply travelling back to the PEP."""

    request_id: str
    decision: str
    obligations: list[dict] = field(default_factory=list)
    status_code: str = ""
    decided_at: float = 0.0
    #: Policy provenance stamp: the version/fingerprint the evaluator
    #: decided under (see :func:`decision_payload`).
    policy_version: int = 0
    policy_fingerprint: str = ""

    def semantic_payload(self) -> dict:
        return decision_payload(self.request_id, self.decision, self.obligations,
                                self.policy_version, self.policy_fingerprint)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "decision": self.decision,
            "obligations": list(self.obligations),
            "status_code": self.status_code,
            "decided_at": self.decided_at,
            "policy_version": self.policy_version,
            "policy_fingerprint": self.policy_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AccessDecision":
        return cls(
            request_id=data["request_id"],
            decision=data["decision"],
            obligations=list(data.get("obligations", [])),
            status_code=data.get("status_code", ""),
            decided_at=float(data.get("decided_at", 0.0)),
            policy_version=int(data.get("policy_version", 0)),
            policy_fingerprint=data.get("policy_fingerprint", ""),
        )
