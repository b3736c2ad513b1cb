"""JSON (de)serialization of policies, expressions and requests.

The Policy Retrieval Point stores policies in this JSON form; the Analyser
loads the same documents to build its independent logical representation —
so the serialization is the system's single source of policy truth.

Expression encoding:

- ``{"literal": v, "data_type": t}``
- ``{"designator": {"category", "attribute_id", "data_type", "must_be_present"}}``
- ``{"apply": name, "arguments": [...]}``
"""

from __future__ import annotations

from typing import Union

from repro.common.errors import PolicyError
from repro.xacml.attributes import Category, DataType
from repro.xacml.context import Obligation
from repro.xacml.expressions import Apply, AttributeDesignator, Expression, Literal
from repro.xacml.policy import AllOf, AnyOf, Effect, Match, Policy, PolicySet, Rule, Target

PolicyElement = Union[Policy, PolicySet]


# -- expressions -------------------------------------------------------------

def expression_to_dict(expr: Expression) -> dict:
    return expr.to_dict()


def expression_from_dict(data: dict) -> Expression:
    if not isinstance(data, dict):
        raise PolicyError(f"expression must be a dict, got {type(data).__name__}")
    if "literal" in data:
        return Literal(value=data["literal"],
                       data_type=data.get("data_type", ""))
    if "designator" in data:
        spec = data["designator"]
        try:
            return AttributeDesignator(
                category=spec["category"],
                attribute_id=spec["attribute_id"],
                data_type=spec.get("data_type", DataType.STRING),
                must_be_present=bool(spec.get("must_be_present", False)),
            )
        except KeyError as exc:
            raise PolicyError(f"designator missing field: {exc}") from exc
    if "apply" in data:
        return Apply(
            function=data["apply"],
            arguments=tuple(expression_from_dict(arg)
                            for arg in data.get("arguments", [])),
        )
    raise PolicyError(f"unrecognised expression: {sorted(data.keys())}")


# -- targets --------------------------------------------------------------------

def _match_to_dict(match: Match) -> dict:
    return {
        "function": match.function,
        "value": match.value,
        "category": Category.shorten(match.designator.category),
        "attribute_id": match.designator.attribute_id,
        "data_type": match.designator.data_type,
    }


def _match_from_dict(data: dict) -> Match:
    try:
        designator = AttributeDesignator(
            category=data["category"],
            attribute_id=data["attribute_id"],
            data_type=data.get("data_type", DataType.STRING),
        )
        return Match(function=data["function"], value=data["value"],
                     designator=designator)
    except KeyError as exc:
        raise PolicyError(f"match missing field: {exc}") from exc


def target_to_dict(target: Target) -> list:
    return [[[_match_to_dict(m) for m in all_of.matches]
             for all_of in any_of.all_ofs]
            for any_of in target.any_ofs]


def target_from_dict(data: list) -> Target:
    if data is None:
        return Target.match_all()
    any_ofs = tuple(
        AnyOf(all_ofs=tuple(
            AllOf(matches=tuple(_match_from_dict(m) for m in all_of))
            for all_of in any_of))
        for any_of in data)
    return Target(any_ofs=any_ofs)


# -- rules / policies / policy sets ---------------------------------------------

def _rule_to_dict(rule: Rule) -> dict:
    return {
        "rule_id": rule.rule_id,
        "effect": rule.effect.value,
        "target": target_to_dict(rule.target),
        "condition": expression_to_dict(rule.condition) if rule.condition else None,
        "description": rule.description,
    }


def _rule_from_dict(data: dict) -> Rule:
    try:
        condition = (expression_from_dict(data["condition"])
                     if data.get("condition") else None)
        return Rule(
            rule_id=data["rule_id"],
            effect=Effect(data["effect"]),
            target=target_from_dict(data.get("target")),
            condition=condition,
            description=data.get("description", ""),
        )
    except (KeyError, ValueError) as exc:
        raise PolicyError(f"malformed rule: {exc}") from exc


def policy_to_dict(element: PolicyElement) -> dict:
    """Serialize a Policy or PolicySet tree."""
    if isinstance(element, Policy):
        return {
            "kind": "policy",
            "policy_id": element.policy_id,
            "rule_combining": element.rule_combining,
            "target": target_to_dict(element.target),
            "rules": [_rule_to_dict(rule) for rule in element.rules],
            "obligations": [ob.to_dict() for ob in element.obligations],
            "description": element.description,
        }
    if isinstance(element, PolicySet):
        return {
            "kind": "policy_set",
            "policy_set_id": element.policy_set_id,
            "policy_combining": element.policy_combining,
            "target": target_to_dict(element.target),
            "children": [policy_to_dict(child) for child in element.children],
            "obligations": [ob.to_dict() for ob in element.obligations],
            "description": element.description,
        }
    raise PolicyError(f"not a policy element: {type(element).__name__}")


def policy_from_dict(data: dict) -> PolicyElement:
    """Deserialize a Policy or PolicySet tree."""
    kind = data.get("kind")
    try:
        if kind == "policy":
            return Policy(
                policy_id=data["policy_id"],
                rule_combining=data["rule_combining"],
                rules=[_rule_from_dict(rule) for rule in data["rules"]],
                target=target_from_dict(data.get("target")),
                obligations=[Obligation.from_dict(ob)
                             for ob in data.get("obligations", [])],
                description=data.get("description", ""),
            )
        if kind == "policy_set":
            return PolicySet(
                policy_set_id=data["policy_set_id"],
                policy_combining=data["policy_combining"],
                children=[policy_from_dict(child) for child in data["children"]],
                target=target_from_dict(data.get("target")),
                obligations=[Obligation.from_dict(ob)
                             for ob in data.get("obligations", [])],
                description=data.get("description", ""),
            )
    except KeyError as exc:
        raise PolicyError(f"malformed policy document: missing {exc}") from exc
    raise PolicyError(f"unknown policy kind: {kind!r}")

