"""Policy elements: targets, rules, policies, policy sets.

Structure follows XACML 3.0:

- a :class:`Target` is a disjunction (:class:`AnyOf`) of conjunctions
  (:class:`AllOf`) of :class:`Match` elements; an empty target matches
  everything;
- a :class:`Rule` has an effect, an optional target and condition;
- a :class:`Policy` combines rules with a rule-combining algorithm;
- a :class:`PolicySet` combines policies/policy sets with a
  policy-combining algorithm;
- obligations attach to policies/policy sets and flow to the PEP with the
  matching decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from repro.common.errors import PolicyError
from repro.xacml.attributes import DataType
from repro.xacml.context import Decision, Obligation, RequestContext
from repro.xacml.expressions import (
    AttributeDesignator,
    EvaluationError,
    Expression,
    FUNCTIONS,
)


class Effect(Enum):
    """Rule effects."""

    PERMIT = "Permit"
    DENY = "Deny"

    def to_decision(self) -> Decision:
        return Decision.PERMIT if self is Effect.PERMIT else Decision.DENY

    def to_indeterminate(self) -> Decision:
        return (Decision.INDETERMINATE_P if self is Effect.PERMIT
                else Decision.INDETERMINATE_D)


class MatchResult(Enum):
    """Outcome of target evaluation."""

    MATCH = "Match"
    NO_MATCH = "NoMatch"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Match:
    """One match element: ``function(literal_value, candidate)`` over a bag.

    The match holds if the function is true for *any* value in the
    designated attribute's bag (per the XACML Match semantics).
    """

    function: str
    value: object
    designator: AttributeDesignator

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise PolicyError(f"unknown match function: {self.function!r}")
        if FUNCTIONS[self.function].higher_order:
            raise PolicyError(f"match function must be first-order: {self.function!r}")

    def evaluate(self, request: RequestContext) -> MatchResult:
        spec = FUNCTIONS[self.function]
        try:
            bag = self.designator.evaluate(request)
            for candidate in bag:
                outcome = spec.apply(self.function, [self.value, candidate])
                if not isinstance(outcome, bool):
                    raise EvaluationError(
                        f"match function {self.function!r} returned non-boolean")
                if outcome:
                    return MatchResult.MATCH
            return MatchResult.NO_MATCH
        except PolicyError:
            return MatchResult.INDETERMINATE


@dataclass(frozen=True)
class AllOf:
    """Conjunction of matches."""

    matches: tuple[Match, ...]

    def evaluate(self, request: RequestContext) -> MatchResult:
        saw_indeterminate = False
        for match in self.matches:
            result = match.evaluate(request)
            if result is MatchResult.NO_MATCH:
                return MatchResult.NO_MATCH
            if result is MatchResult.INDETERMINATE:
                saw_indeterminate = True
        return MatchResult.INDETERMINATE if saw_indeterminate else MatchResult.MATCH


@dataclass(frozen=True)
class AnyOf:
    """Disjunction of :class:`AllOf` conjunctions."""

    all_ofs: tuple[AllOf, ...]

    def evaluate(self, request: RequestContext) -> MatchResult:
        saw_indeterminate = False
        for all_of in self.all_ofs:
            result = all_of.evaluate(request)
            if result is MatchResult.MATCH:
                return MatchResult.MATCH
            if result is MatchResult.INDETERMINATE:
                saw_indeterminate = True
        return MatchResult.INDETERMINATE if saw_indeterminate else MatchResult.NO_MATCH


@dataclass(frozen=True)
class Target:
    """Conjunction of :class:`AnyOf` elements; empty target matches all."""

    any_ofs: tuple[AnyOf, ...] = ()

    @classmethod
    def match_all(cls) -> "Target":
        return cls(any_ofs=())

    @classmethod
    def single(cls, function: str, value: object, category: str,
               attribute_id: str, data_type: str = DataType.STRING) -> "Target":
        """Convenience: target with one match element."""
        designator = AttributeDesignator(category, attribute_id, data_type)
        match = Match(function=function, value=value, designator=designator)
        return cls(any_ofs=(AnyOf(all_ofs=(AllOf(matches=(match,)),)),))

    def evaluate(self, request: RequestContext) -> MatchResult:
        saw_indeterminate = False
        for any_of in self.any_ofs:
            result = any_of.evaluate(request)
            if result is MatchResult.NO_MATCH:
                return MatchResult.NO_MATCH
            if result is MatchResult.INDETERMINATE:
                saw_indeterminate = True
        return MatchResult.INDETERMINATE if saw_indeterminate else MatchResult.MATCH


@dataclass
class Rule:
    """An effect guarded by a target and an optional boolean condition."""

    rule_id: str
    effect: Effect
    target: Target = field(default_factory=Target.match_all)
    condition: Optional[Expression] = None
    description: str = ""

    def evaluate(self, request: RequestContext) -> Decision:
        target_result = self.target.evaluate(request)
        if target_result is MatchResult.NO_MATCH:
            return Decision.NOT_APPLICABLE
        if target_result is MatchResult.INDETERMINATE:
            return self.effect.to_indeterminate()
        if self.condition is None:
            return self.effect.to_decision()
        try:
            outcome = self.condition.evaluate(request)
        except PolicyError:
            # Any evaluation failure (type error, empty one-and-only,
            # missing mandatory attribute) is Indeterminate per XACML.
            return self.effect.to_indeterminate()
        if not isinstance(outcome, bool):
            return self.effect.to_indeterminate()
        if outcome:
            return self.effect.to_decision()
        return Decision.NOT_APPLICABLE


@dataclass
class Policy:
    """Rules combined under a rule-combining algorithm."""

    policy_id: str
    rule_combining: str
    rules: list[Rule] = field(default_factory=list)
    target: Target = field(default_factory=Target.match_all)
    obligations: list[Obligation] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        from repro.xacml.combining import RULE_COMBINING

        if self.rule_combining not in RULE_COMBINING:
            raise PolicyError(f"unknown rule combining algorithm: {self.rule_combining!r}")
        if not self.rules:
            raise PolicyError(f"policy {self.policy_id!r} has no rules")

    def evaluate(self, request: RequestContext) -> Decision:
        from repro.xacml.combining import RULE_COMBINING, adjust_for_target

        target_result = self.target.evaluate(request)
        if target_result is MatchResult.NO_MATCH:
            return Decision.NOT_APPLICABLE
        combined = RULE_COMBINING[self.rule_combining](
            [rule.evaluate(request) for rule in self.rules])
        if target_result is MatchResult.INDETERMINATE:
            return adjust_for_target(combined)
        return combined

    def evaluate_full(self, request: RequestContext) -> tuple[Decision, list[Obligation]]:
        """Decision plus the obligations owed for it."""
        decision = self.evaluate(request)
        return decision, self.obligations_for(decision)

    def obligations_for(self, decision: Decision) -> list[Obligation]:
        effective = decision.collapse()
        return [ob for ob in self.obligations if ob.fulfill_on == effective.value]


PolicyElement = Union[Policy, "PolicySet"]


@dataclass
class PolicySet:
    """Policies (and nested policy sets) under a policy-combining algorithm."""

    policy_set_id: str
    policy_combining: str
    children: list[PolicyElement] = field(default_factory=list)
    target: Target = field(default_factory=Target.match_all)
    obligations: list[Obligation] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        from repro.xacml.combining import POLICY_COMBINING

        if self.policy_combining not in POLICY_COMBINING:
            raise PolicyError(
                f"unknown policy combining algorithm: {self.policy_combining!r}")
        if not self.children:
            raise PolicyError(f"policy set {self.policy_set_id!r} has no children")

    def evaluate_full(self, request: RequestContext) -> tuple[Decision, list[Obligation]]:
        """Decision plus obligations from every child that agreed with it.

        Per XACML, obligations propagate upward from the policies whose own
        decision matches the combined decision, plus this set's own
        obligations for that decision.
        """
        from repro.xacml.combining import POLICY_COMBINING, adjust_for_target

        target_result = self.target.evaluate(request)
        if target_result is MatchResult.NO_MATCH:
            return Decision.NOT_APPLICABLE, []
        child_results = [child.evaluate_full(request) for child in self.children]
        combined = POLICY_COMBINING[self.policy_combining](
            [decision for decision, _ in child_results])
        if target_result is MatchResult.INDETERMINATE:
            combined = adjust_for_target(combined)
        obligations = [ob for ob in self.obligations
                       if ob.fulfill_on == combined.collapse().value]
        for decision, child_obligations in child_results:
            if decision.collapse() == combined.collapse():
                obligations.extend(child_obligations)
        return combined, obligations

    def iter_policies(self) -> list[Policy]:
        """All leaf policies in document order."""
        leaves: list[Policy] = []
        for child in self.children:
            if isinstance(child, Policy):
                leaves.append(child)
            else:
                leaves.extend(child.iter_policies())
        return leaves
