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
from repro.common.ids import correlation_id
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
    request_id: str
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
        (replayed requests cannot hide under an old correlation).  Memoised
        on those fields, so the probe legs holding this object encode once.
        """
        key = (self.request_id, self.origin_tenant, repr(self.issued_at))
        memo = getattr(self, "_correlation_memo", None)
        if memo is None or memo[0] != key:
            fields = {"request_id": key[0], "origin": key[1], "issued_at": self.issued_at}
            memo = self._correlation_memo = (key, correlation_id(fields))
        return memo[1]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

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


def decision_payload(
    request_id: str,
    decision: str,
    obligations: list[dict] | None = None,
    policy_version: int = 0,
    policy_fingerprint: str = "",
) -> dict:
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
        return decision_payload(
            self.request_id,
            self.decision,
            self.obligations,
            self.policy_version,
            self.policy_fingerprint,
        )

    def to_dict(self) -> dict:
        fields = {name: getattr(self, name) for name in self.__dataclass_fields__}
        return {**fields, "obligations": list(self.obligations)}

    @classmethod
    def from_dict(cls, data: dict) -> "AccessDecision":
        """Decode a wire decision; only :class:`ValidationError` escapes."""
        try:
            decision = cls(
                request_id=data["request_id"],
                decision=data["decision"],
                obligations=list(data.get("obligations", [])),
                status_code=data.get("status_code", ""),
                decided_at=float(data.get("decided_at", 0.0)),
                policy_version=int(data.get("policy_version", 0)),
                policy_fingerprint=data.get("policy_fingerprint", ""),
            )
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise ValidationError(f"malformed access decision: {exc!r}") from exc
        strings = ("request_id", "decision", "status_code", "policy_fingerprint")
        if not (
            all(isinstance(getattr(decision, name), str) for name in strings)
            and all(isinstance(item, dict) for item in decision.obligations)
        ):
            raise ValidationError("malformed access decision: a field of the wrong type")
        return decision
