"""Typed expression language (XACML conditions and match functions).

Expressions form a small AST:

- :class:`Literal` — a typed constant,
- :class:`AttributeDesignator` — a bag lookup in the request context,
- :class:`Apply` — application of a named function from :data:`FUNCTIONS`.

Evaluation is total over well-formed inputs; type errors, missing mandatory
attributes and arity violations raise :class:`EvaluationError`, which the
rule evaluator converts into an Indeterminate decision — exactly the error
propagation XACML prescribes.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import PolicyError
from repro.xacml.attributes import AttributeId, Bag, DataType
from repro.xacml.context import RequestContext


class EvaluationError(PolicyError):
    """An expression could not be evaluated (→ Indeterminate)."""

    def __init__(self, message: str, missing_attribute: bool = False) -> None:
        super().__init__(message)
        self.missing_attribute = missing_attribute


class Expression(ABC):
    """Base class of the expression AST."""

    @abstractmethod
    def evaluate(self, request: RequestContext) -> Any:
        """Return a value or a :class:`Bag`; raise :class:`EvaluationError`."""

    @abstractmethod
    def to_dict(self) -> dict:
        """JSON-serializable representation (see :mod:`repro.xacml.parser`)."""


@dataclass(frozen=True)
class Literal(Expression):
    """A typed constant."""

    value: Any
    data_type: str = ""

    def __post_init__(self) -> None:
        inferred = DataType.infer(self.value) if not self.data_type else self.data_type
        object.__setattr__(self, "data_type", inferred)
        DataType.check(inferred, self.value)

    def evaluate(self, request: RequestContext) -> Any:
        return self.value

    def to_dict(self) -> dict:
        return {"literal": self.value, "data_type": self.data_type}


@dataclass(frozen=True)
class AttributeDesignator(Expression):
    """A bag lookup: all values of an attribute in a category.

    ``must_be_present`` mirrors XACML's MustBePresent: an empty bag then
    raises a missing-attribute evaluation error instead of returning empty.
    """

    category: str
    attribute_id: str
    data_type: str = DataType.STRING
    must_be_present: bool = False

    def __post_init__(self) -> None:
        # Normalises short category names and validates them.
        object.__setattr__(self, "category",
                           AttributeId(self.category, self.attribute_id).category)

    def evaluate(self, request: RequestContext) -> Bag:
        bag = request.bag(self.category, self.attribute_id, self.data_type)
        if self.must_be_present and len(bag) == 0:
            raise EvaluationError(
                f"mandatory attribute {self.attribute_id!r} missing in request",
                missing_attribute=True)
        if len(bag) > 0 and bag.data_type != self.data_type:
            raise EvaluationError(
                f"attribute {self.attribute_id!r} has type {bag.data_type}, "
                f"designator expects {self.data_type}")
        return bag

    def to_dict(self) -> dict:
        from repro.xacml.attributes import Category

        return {
            "designator": {
                "category": Category.shorten(self.category),
                "attribute_id": self.attribute_id,
                "data_type": self.data_type,
                "must_be_present": self.must_be_present,
            }
        }


@dataclass(frozen=True)
class Apply(Expression):
    """Application of a named function to sub-expressions."""

    function: str
    arguments: tuple[Expression, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise PolicyError(f"unknown function: {self.function!r}")
        object.__setattr__(self, "arguments", tuple(self.arguments))

    def evaluate(self, request: RequestContext) -> Any:
        spec = FUNCTIONS[self.function]
        if spec.higher_order:
            return spec.implementation(self.arguments, request)
        values = [arg.evaluate(request) for arg in self.arguments]
        return spec.apply(self.function, values)

    def to_dict(self) -> dict:
        return {
            "apply": self.function,
            "arguments": [arg.to_dict() for arg in self.arguments],
        }


@dataclass(frozen=True)
class FunctionSpec:
    """Registered function: arity checking plus implementation."""

    name: str
    arity: int  # -1 for variadic
    implementation: Callable[..., Any]
    higher_order: bool = False

    def apply(self, name: str, values: list[Any]) -> Any:
        if self.arity >= 0 and len(values) != self.arity:
            raise EvaluationError(
                f"{name} expects {self.arity} arguments, got {len(values)}")
        return self.implementation(*values)


def _require(value: Any, data_type: str, context: str) -> Any:
    try:
        return DataType.check(data_type, value)
    except PolicyError as exc:
        raise EvaluationError(f"{context}: {exc}") from exc


def _numeric(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"{context}: {value!r} is not numeric")
    return value


FUNCTIONS: dict[str, FunctionSpec] = {}


def _register(name: str, arity: int, implementation: Callable[..., Any],
              higher_order: bool = False) -> None:
    if name in FUNCTIONS:
        raise PolicyError(f"duplicate function registration: {name}")
    FUNCTIONS[name] = FunctionSpec(name, arity, implementation, higher_order)


# -- equality and comparison ---------------------------------------------------

def _typed_equal(data_type: str) -> Callable[[Any, Any], bool]:
    def equal(a: Any, b: Any) -> bool:
        return (_require(a, data_type, "equal") == _require(b, data_type, "equal"))
    return equal


_register("string-equal", 2, _typed_equal(DataType.STRING))
_register("integer-equal", 2, _typed_equal(DataType.INTEGER))
_register("double-equal", 2, _typed_equal(DataType.DOUBLE))
_register("boolean-equal", 2, _typed_equal(DataType.BOOLEAN))
_register("time-equal", 2, _typed_equal(DataType.TIME))

_register("integer-greater-than", 2,
          lambda a, b: _numeric(a, "gt") > _numeric(b, "gt"))
_register("integer-greater-than-or-equal", 2,
          lambda a, b: _numeric(a, "gte") >= _numeric(b, "gte"))
_register("integer-less-than", 2,
          lambda a, b: _numeric(a, "lt") < _numeric(b, "lt"))
_register("integer-less-than-or-equal", 2,
          lambda a, b: _numeric(a, "lte") <= _numeric(b, "lte"))
_register("double-greater-than", 2,
          lambda a, b: _numeric(a, "gt") > _numeric(b, "gt"))
_register("double-less-than", 2,
          lambda a, b: _numeric(a, "lt") < _numeric(b, "lt"))
_register("time-in-range", 3,
          lambda t, lo, hi: _numeric(lo, "range") <= _numeric(t, "range")
          <= _numeric(hi, "range"))

# -- arithmetic ---------------------------------------------------------------

_register("integer-add", -1, lambda *xs: sum(int(_numeric(x, "add")) for x in xs))
_register("integer-subtract", 2,
          lambda a, b: int(_numeric(a, "sub")) - int(_numeric(b, "sub")))
_register("integer-multiply", -1,
          lambda *xs: __import__("math").prod(int(_numeric(x, "mul")) for x in xs))
_register("double-add", -1, lambda *xs: float(sum(_numeric(x, "add") for x in xs)))
_register("integer-mod", 2, lambda a, b: int(_numeric(a, "mod")) % int(_numeric(b, "mod")))
_register("integer-abs", 1, lambda a: abs(int(_numeric(a, "abs"))))

# -- boolean logic ----------------------------------------------------------------

def _boolean(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise EvaluationError(f"{context}: {value!r} is not boolean")
    return value


_register("and", -1, lambda *xs: all(_boolean(x, "and") for x in xs))
_register("or", -1, lambda *xs: any(_boolean(x, "or") for x in xs))
_register("not", 1, lambda x: not _boolean(x, "not"))
_register("n-of", -1, lambda n, *xs: sum(1 for x in xs if _boolean(x, "n-of"))
          >= int(_numeric(n, "n-of")))

# -- strings ----------------------------------------------------------------------

_register("string-concatenate", -1,
          lambda *xs: "".join(_require(x, DataType.STRING, "concat") for x in xs))
_register("string-starts-with", 2,
          lambda prefix, s: _require(s, DataType.STRING, "starts-with")
          .startswith(_require(prefix, DataType.STRING, "starts-with")))
_register("string-ends-with", 2,
          lambda suffix, s: _require(s, DataType.STRING, "ends-with")
          .endswith(_require(suffix, DataType.STRING, "ends-with")))
_register("string-contains", 2,
          lambda needle, s: _require(needle, DataType.STRING, "contains")
          in _require(s, DataType.STRING, "contains"))
_register("string-regexp-match", 2,
          lambda pattern, s: re.search(_require(pattern, DataType.STRING, "regexp"),
                                       _require(s, DataType.STRING, "regexp")) is not None)
_register("string-normalize-to-lower-case", 1,
          lambda s: _require(s, DataType.STRING, "lower").lower())

# -- bags ---------------------------------------------------------------------------

def _as_bag(value: Any, context: str) -> Bag:
    if not isinstance(value, Bag):
        raise EvaluationError(f"{context}: expected a bag, got {type(value).__name__}")
    return value


_register("one-and-only", 1, lambda bag: _as_bag(bag, "one-and-only").one_and_only())
_register("bag-size", 1, lambda bag: len(_as_bag(bag, "bag-size")))
_register("is-in", 2, lambda value, bag: value in _as_bag(bag, "is-in"))
_register(
    "bag", -1, lambda *values: Bag(DataType.infer(values[0]) if values else DataType.STRING, values)
)


def _bag_intersection(a: Any, b: Any) -> Bag:
    bag_a, bag_b = _as_bag(a, "intersection"), _as_bag(b, "intersection")
    common = [v for v in bag_a if v in bag_b]
    return Bag(bag_a.data_type, common)


def _bag_union(a: Any, b: Any) -> Bag:
    bag_a, bag_b = _as_bag(a, "union"), _as_bag(b, "union")
    merged = list(bag_a.values)
    merged.extend(v for v in bag_b if v not in merged)
    data_type = bag_a.data_type if len(bag_a) else bag_b.data_type
    return Bag(data_type, merged)


def _at_least_one_member_of(a: Any, b: Any) -> bool:
    bag_a, bag_b = _as_bag(a, "member-of"), _as_bag(b, "member-of")
    return any(v in bag_b for v in bag_a)


def _subset(a: Any, b: Any) -> bool:
    bag_a, bag_b = _as_bag(a, "subset"), _as_bag(b, "subset")
    return all(v in bag_b for v in bag_a)


_register("intersection", 2, _bag_intersection)
_register("union", 2, _bag_union)
_register("at-least-one-member-of", 2, _at_least_one_member_of)
_register("subset", 2, _subset)

# -- higher-order functions -----------------------------------------------------

def _resolve_predicate(expr: Expression) -> str:
    if not isinstance(expr, Literal) or expr.data_type != DataType.STRING:
        raise EvaluationError("higher-order function needs a function-name literal")
    name = expr.value
    if name not in FUNCTIONS or FUNCTIONS[name].higher_order:
        raise EvaluationError(f"not a first-order function: {name!r}")
    return name


def _any_of(arguments: tuple[Expression, ...], request: RequestContext) -> bool:
    """any-of(function, value, bag): does any bag element satisfy f(value, e)?"""
    if len(arguments) != 3:
        raise EvaluationError("any-of expects (function, value, bag)")
    name = _resolve_predicate(arguments[0])
    value = arguments[1].evaluate(request)
    bag = _as_bag(arguments[2].evaluate(request), "any-of")
    spec = FUNCTIONS[name]
    return any(_boolean(spec.apply(name, [value, element]), "any-of") for element in bag)


def _all_of(arguments: tuple[Expression, ...], request: RequestContext) -> bool:
    """all-of(function, value, bag): do all bag elements satisfy f(value, e)?"""
    if len(arguments) != 3:
        raise EvaluationError("all-of expects (function, value, bag)")
    name = _resolve_predicate(arguments[0])
    value = arguments[1].evaluate(request)
    bag = _as_bag(arguments[2].evaluate(request), "all-of")
    spec = FUNCTIONS[name]
    return all(_boolean(spec.apply(name, [value, element]), "all-of") for element in bag)


def _any_of_any(arguments: tuple[Expression, ...], request: RequestContext) -> bool:
    """any-of-any(function, bag_a, bag_b): some pair satisfies f(a, b)."""
    if len(arguments) != 3:
        raise EvaluationError("any-of-any expects (function, bag, bag)")
    name = _resolve_predicate(arguments[0])
    bag_a = _as_bag(arguments[1].evaluate(request), "any-of-any")
    bag_b = _as_bag(arguments[2].evaluate(request), "any-of-any")
    spec = FUNCTIONS[name]
    return any(_boolean(spec.apply(name, [a, b]), "any-of-any")
               for a in bag_a for b in bag_b)


_register("any-of", -1, _any_of, higher_order=True)
_register("all-of", -1, _all_of, higher_order=True)
_register("any-of-any", -1, _any_of_any, higher_order=True)
