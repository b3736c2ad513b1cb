"""Request/response contexts and the decision algebra.

XACML 3.0 decisions are four-valued — Permit, Deny, NotApplicable,
Indeterminate — with Indeterminate refined into D/P/DP variants describing
which decisions the error could have masked.  The combining algorithms in
:mod:`repro.xacml.combining` operate over this extended algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.common.errors import PolicyError, ValidationError
from repro.xacml.attributes import Bag, Category, DataType


class Decision(Enum):
    """Extended XACML decision values."""

    PERMIT = "Permit"
    DENY = "Deny"
    NOT_APPLICABLE = "NotApplicable"
    INDETERMINATE = "Indeterminate"
    INDETERMINATE_P = "Indeterminate{P}"
    INDETERMINATE_D = "Indeterminate{D}"
    INDETERMINATE_DP = "Indeterminate{DP}"

    def is_indeterminate(self) -> bool:
        return self in _INDETERMINATES

    def collapse(self) -> "Decision":
        """Map extended indeterminates onto plain Indeterminate.

        The wire format between PEP and PDP uses the four base values, as
        the XACML response context does.
        """
        if self in _INDETERMINATES:
            return Decision.INDETERMINATE
        return self


_INDETERMINATES = {
    Decision.INDETERMINATE,
    Decision.INDETERMINATE_P,
    Decision.INDETERMINATE_D,
    Decision.INDETERMINATE_DP,
}


class StatusCode:
    """XACML status codes attached to responses."""

    OK = "urn:oasis:names:tc:xacml:1.0:status:ok"
    MISSING_ATTRIBUTE = "urn:oasis:names:tc:xacml:1.0:status:missing-attribute"
    PROCESSING_ERROR = "urn:oasis:names:tc:xacml:1.0:status:processing-error"
    SYNTAX_ERROR = "urn:oasis:names:tc:xacml:1.0:status:syntax-error"


@dataclass(frozen=True)
class Obligation:
    """An action the PEP must discharge when enforcing the decision."""

    obligation_id: str
    fulfill_on: str  # "Permit" or "Deny"
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "obligation_id": self.obligation_id,
            "fulfill_on": self.fulfill_on,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Obligation":
        return cls(
            obligation_id=data["obligation_id"],
            fulfill_on=data["fulfill_on"],
            attributes=dict(data.get("attributes", {})),
        )


class RequestContext:
    """The attribute sets of one access request.

    Construction is category-keyed:

    >>> request = RequestContext.of(
    ...     subject={"subject-id": "alice", "role": ["doctor", "researcher"]},
    ...     resource={"resource-id": "record-42", "type": "medical-record"},
    ...     action={"action-id": "read"},
    ... )
    """

    def __init__(self) -> None:
        self._attributes: dict[str, dict[str, Bag]] = {c: {} for c in Category.ALL}

    @classmethod
    def of(cls, subject: dict | None = None, resource: dict | None = None,
           action: dict | None = None, environment: dict | None = None) -> "RequestContext":
        request = cls()
        for category, mapping in (
            (Category.SUBJECT, subject),
            (Category.RESOURCE, resource),
            (Category.ACTION, action),
            (Category.ENVIRONMENT, environment),
        ):
            for attribute_id, value in (mapping or {}).items():
                request.add(category, attribute_id, value)
        return request

    def add(self, category: str, attribute_id: str, value: Any) -> "RequestContext":
        """Add value(s) for an attribute; lists become multi-valued bags."""
        category = Category.expand(category)
        values = value if isinstance(value, list) else [value]
        if not values:
            return self
        data_type = DataType.infer(values[0])
        existing = self._attributes[category].get(attribute_id)
        if existing is not None:
            if existing.data_type != data_type:
                raise PolicyError(
                    f"attribute {attribute_id!r} already has type {existing.data_type}")
            existing.values.extend(DataType.check(data_type, v) for v in values)
        else:
            self._attributes[category][attribute_id] = Bag(data_type, values)
        return self

    def bag(self, category: str, attribute_id: str, data_type: str | None = None) -> Bag:
        """The (possibly empty) bag for an attribute."""
        category = Category.expand(category)
        bag = self._attributes[category].get(attribute_id)
        if bag is None:
            return Bag.empty(data_type or DataType.STRING)
        return bag

    def to_dict(self) -> dict:
        """Canonical plain-data form (used for hashing and wire transfer)."""
        out: dict[str, dict[str, list]] = {}
        for category, attributes in sorted(self._attributes.items()):
            if not attributes:
                continue
            short = Category.shorten(category)
            out[short] = {aid: sorted(bag.values, key=repr)
                          for aid, bag in sorted(attributes.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RequestContext":
        """Decode :meth:`to_dict`'s form; only :class:`ValidationError` escapes.

        ``data`` maps categories to mappings of attribute ids to value
        lists.  Anything else — not a mapping of attribute mappings, an
        unknown category, a value no data type takes — is malformed.
        """
        if not (isinstance(data, dict) and all(isinstance(a, dict) for a in data.values())):
            raise ValidationError("request content must map categories to attribute mappings")
        request = cls()
        try:
            for category, attributes in data.items():
                for attribute_id, values in attributes.items():
                    request.add(category, attribute_id, list(values))
        except (TypeError, PolicyError) as exc:
            raise ValidationError(f"malformed request content: {exc!r}") from exc
        return request

    def __repr__(self) -> str:
        return f"RequestContext({self.to_dict()!r})"


@dataclass
class ResponseContext:
    """The PDP's answer: decision, status, obligations."""

    decision: Decision
    status_code: str = StatusCode.OK
    status_message: str = ""
    obligations: list[Obligation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "decision": self.decision.collapse().value,
            "status_code": self.status_code,
            "status_message": self.status_message,
            "obligations": [ob.to_dict() for ob in self.obligations],
        }
