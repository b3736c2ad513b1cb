"""Attribute model: categories, identifiers, typed bags.

XACML evaluates policies over *attributes* grouped into categories
(access-subject, resource, action, environment).  Attribute lookups return
*bags* — unordered multisets — because a request may carry several values
for one attribute (e.g. a subject with two roles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.common.errors import PolicyError


class Category:
    """The four standard XACML 3.0 attribute categories."""

    SUBJECT = "urn:oasis:names:tc:xacml:1.0:subject-category:access-subject"
    RESOURCE = "urn:oasis:names:tc:xacml:3.0:attribute-category:resource"
    ACTION = "urn:oasis:names:tc:xacml:3.0:attribute-category:action"
    ENVIRONMENT = "urn:oasis:names:tc:xacml:3.0:attribute-category:environment"

    ALL = (SUBJECT, RESOURCE, ACTION, ENVIRONMENT)

    _SHORT = {
        "subject": SUBJECT,
        "resource": RESOURCE,
        "action": ACTION,
        "environment": ENVIRONMENT,
    }

    @classmethod
    def expand(cls, name: str) -> str:
        """Accept either a short name ("subject") or a full URN."""
        if name in cls._SHORT:
            return cls._SHORT[name]
        if name in cls.ALL:
            return name
        raise PolicyError(f"unknown attribute category: {name!r}")

    @classmethod
    def shorten(cls, urn: str) -> str:
        for short, full in cls._SHORT.items():
            if full == urn:
                return short
        return urn


@dataclass(frozen=True)
class AttributeId:
    """A category-qualified attribute identifier."""

    category: str
    attribute_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "category", Category.expand(self.category))


class DataType:
    """Supported attribute data types (a practical XACML subset)."""

    STRING = "string"
    INTEGER = "integer"
    DOUBLE = "double"
    BOOLEAN = "boolean"
    TIME = "time"  # seconds since midnight, as a double

    ALL = (STRING, INTEGER, DOUBLE, BOOLEAN, TIME)

    _PYTHON_TYPES = {
        STRING: str,
        INTEGER: int,
        DOUBLE: float,
        BOOLEAN: bool,
        TIME: float,
    }

    @classmethod
    def check(cls, data_type: str, value: Any) -> Any:
        """Validate/coerce ``value`` for ``data_type``; raise on mismatch."""
        if data_type not in cls._PYTHON_TYPES:
            raise PolicyError(f"unknown data type: {data_type!r}")
        expected = cls._PYTHON_TYPES[data_type]
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if expected is int and isinstance(value, bool):
            raise PolicyError(f"boolean is not an integer: {value!r}")
        if not isinstance(value, expected):
            raise PolicyError(
                f"value {value!r} is not of data type {data_type}")
        return value

    @classmethod
    def infer(cls, value: Any) -> str:
        if isinstance(value, bool):
            return cls.BOOLEAN
        if isinstance(value, int):
            return cls.INTEGER
        if isinstance(value, float):
            return cls.DOUBLE
        if isinstance(value, str):
            return cls.STRING
        raise PolicyError(f"cannot infer data type of {value!r}")


class Bag:
    """An unordered multiset of same-typed attribute values."""

    def __init__(self, data_type: str, values: Iterable[Any] = ()) -> None:
        self.data_type = data_type
        self.values = [DataType.check(data_type, v) for v in values]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: Any) -> bool:
        return value in self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return (self.data_type == other.data_type
                and sorted(map(repr, self.values)) == sorted(map(repr, other.values)))

    def __repr__(self) -> str:
        return f"Bag({self.data_type}, {self.values!r})"

    def one_and_only(self) -> Any:
        """The single element of a singleton bag (XACML one-and-only)."""
        if len(self.values) != 1:
            raise PolicyError(
                f"one-and-only applied to a bag of size {len(self.values)}")
        return self.values[0]
