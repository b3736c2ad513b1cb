"""Target indexing: pre-compiled attribute guards for fast rule dispatch.

Plain evaluation walks the whole policy tree for every request, running the
full Match machinery (designator lookup, function dispatch) even for rules
whose targets obviously cannot match.  This module compiles each rule and
policy-set-child target into a *guard* — the set of equality constraints a
request must satisfy for the target to possibly match — so evaluation can
skip provably non-matching branches with a handful of set lookups.

Soundness: a guard only ever proves ``NoMatch``.  A rule is skipped iff its
target is *guaranteed* to evaluate to ``NoMatch``, in which case the rule
would have contributed exactly ``NotApplicable`` (and a policy-set child
exactly ``(NotApplicable, [])``).  The indeterminate paths are preserved:

- an empty bag makes every match on that attribute ``NoMatch`` → skippable;
- a non-empty bag of the wrong data type makes the match ``Indeterminate``
  → never skipped;
- only pure equality match functions over validated literals are inverted
  into guards; everything else falls back to full evaluation.

Differential tests (`tests/test_target_index.py`) assert decisions *and*
obligations are bit-identical to the slow path on random policy trees and
on every shipped scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.xacml.attributes import DataType
from repro.xacml.combining import POLICY_COMBINING, RULE_COMBINING, adjust_for_target
from repro.xacml.context import Decision, Obligation, RequestContext
from repro.xacml.expressions import Apply, AttributeDesignator, Expression
from repro.xacml.policy import MatchResult, Policy, PolicySet, Target

#: Match functions that are pure typed equality — the only ones a guard can
#: safely invert into a value-membership test.
_EQUALITY_FUNCTIONS = {
    "string-equal": DataType.STRING,
    "integer-equal": DataType.INTEGER,
    "double-equal": DataType.DOUBLE,
    "boolean-equal": DataType.BOOLEAN,
    "time-equal": DataType.TIME,
}

_INVALID = object()


def _guard_literal(value: object, data_type: str) -> object:
    """The literal as it would compare against bag values, or ``_INVALID``.

    A literal the equality function would reject raises at evaluation time
    (→ Indeterminate), so such matches must never be inverted into guards.
    """
    if data_type == DataType.STRING:
        return value if isinstance(value, str) else _INVALID
    if data_type == DataType.BOOLEAN:
        return value if isinstance(value, bool) else _INVALID
    if data_type == DataType.INTEGER:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        return _INVALID
    if data_type in (DataType.DOUBLE, DataType.TIME):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return _INVALID
    return _INVALID


@dataclass(frozen=True)
class _MatchKey:
    """One invertible equality constraint from a target match."""

    category: str
    attribute_id: str
    data_type: str
    value: object


class _BagView:
    """Per-request memo of bag lookups shared across the whole tree."""

    __slots__ = ("request", "_memo")

    def __init__(self, request: RequestContext) -> None:
        self.request = request
        self._memo: dict[tuple[str, str, str], Optional[frozenset]] = {}

    def excludes(self, key: _MatchKey) -> bool:
        """True iff the match for ``key`` is guaranteed ``NoMatch``."""
        attr = (key.category, key.attribute_id, key.data_type)
        values = self._memo.get(attr, _INVALID)
        if values is _INVALID:
            bag = self.request.bag(key.category, key.attribute_id, key.data_type)
            if len(bag) == 0:
                values = frozenset()
            elif bag.data_type != key.data_type:
                values = None  # type clash → Indeterminate, never skippable
            else:
                values = frozenset(bag.values)
            self._memo[attr] = values
        if values is None:
            return False
        return key.value not in values


def compile_guard(target: Target) -> Optional[tuple[_MatchKey, ...]]:
    """One key per AllOf of some AnyOf; all-excluded ⇒ target is NoMatch.

    ``Target.evaluate`` returns ``NoMatch`` as soon as any AnyOf is
    ``NoMatch``; an AnyOf is ``NoMatch`` when every one of its AllOf
    conjunctions contains a match that is ``NoMatch``.  The guard therefore
    picks, for a single AnyOf, one invertible match per AllOf.  Returns
    ``None`` when no AnyOf is fully invertible (the rule is then always
    evaluated).  An empty target has no guard — it matches everything.
    """
    best: Optional[tuple[_MatchKey, ...]] = None
    for any_of in target.any_ofs:
        keys: list[_MatchKey] = []
        invertible = True
        for all_of in any_of.all_ofs:
            key = None
            for match in all_of.matches:
                data_type = _EQUALITY_FUNCTIONS.get(match.function)
                if data_type is None:
                    continue
                designator = match.designator
                if designator.must_be_present or designator.data_type != data_type:
                    continue
                literal = _guard_literal(match.value, data_type)
                if literal is _INVALID:
                    continue
                key = _MatchKey(designator.category, designator.attribute_id, data_type, literal)
                break
            if key is None:
                invertible = False
                break
            keys.append(key)
        if invertible and keys and (best is None or len(keys) < len(best)):
            best = tuple(keys)
    return best


@dataclass
class IndexStats:
    """Skip/evaluate counters for one compiled index."""

    rules_skipped: int = 0
    rules_evaluated: int = 0
    children_skipped: int = 0
    children_evaluated: int = 0

    def as_dict(self) -> dict:
        return {
            "rules_skipped": self.rules_skipped,
            "rules_evaluated": self.rules_evaluated,
            "children_skipped": self.children_skipped,
            "children_evaluated": self.children_evaluated,
        }


class IndexedPolicy:
    """A :class:`Policy` with per-rule target guards."""

    def __init__(self, policy: Policy, stats: IndexStats) -> None:
        self.policy = policy
        self.stats = stats
        self.guard = compile_guard(policy.target)
        self._combine = RULE_COMBINING[policy.rule_combining]
        self._guards = [compile_guard(rule.target) for rule in policy.rules]
        # What the slow path returns for a NoMatch target — obligations with
        # a non-standard fulfill_on of "NotApplicable" included, so skipping
        # this policy as a child stays bit-identical.
        self.skip_result = (
            Decision.NOT_APPLICABLE,
            policy.obligations_for(Decision.NOT_APPLICABLE),
        )

    def evaluate_full(
        self,
        request: RequestContext,
        view: Optional[_BagView] = None,
    ) -> tuple[Decision, list[Obligation]]:
        view = view if view is not None else _BagView(request)
        decision = self._evaluate(request, view)
        return decision, self.policy.obligations_for(decision)

    def _evaluate(self, request: RequestContext, view: _BagView) -> Decision:
        policy = self.policy
        target_result = policy.target.evaluate(request)
        if target_result is MatchResult.NO_MATCH:
            return Decision.NOT_APPLICABLE
        decisions: list[Decision] = []
        for rule, guard in zip(policy.rules, self._guards):
            if guard is not None and all(view.excludes(key) for key in guard):
                self.stats.rules_skipped += 1
                decisions.append(Decision.NOT_APPLICABLE)
            else:
                self.stats.rules_evaluated += 1
                decisions.append(rule.evaluate(request))
        combined = self._combine(decisions)
        if target_result is MatchResult.INDETERMINATE:
            return adjust_for_target(combined)
        return combined


class IndexedPolicySet:
    """A :class:`PolicySet` with per-child target guards, nested."""

    def __init__(self, policy_set: PolicySet, stats: IndexStats) -> None:
        self.policy_set = policy_set
        self.stats = stats
        self.guard = compile_guard(policy_set.target)
        self._combine = POLICY_COMBINING[policy_set.policy_combining]
        self.children = [_compile_element(child, stats) for child in policy_set.children]
        # PolicySet.evaluate_full returns ([], no obligations) on NoMatch.
        self.skip_result: tuple[Decision, list[Obligation]] = (Decision.NOT_APPLICABLE, [])

    def evaluate_full(
        self,
        request: RequestContext,
        view: Optional[_BagView] = None,
    ) -> tuple[Decision, list[Obligation]]:
        view = view if view is not None else _BagView(request)
        policy_set = self.policy_set
        target_result = policy_set.target.evaluate(request)
        if target_result is MatchResult.NO_MATCH:
            return Decision.NOT_APPLICABLE, []
        child_results: list[tuple[Decision, list[Obligation]]] = []
        for child in self.children:
            if child.guard is not None and all(view.excludes(key) for key in child.guard):
                self.stats.children_skipped += 1
                child_results.append(child.skip_result)
            else:
                self.stats.children_evaluated += 1
                child_results.append(child.evaluate_full(request, view))
        combined = self._combine([decision for decision, _ in child_results])
        if target_result is MatchResult.INDETERMINATE:
            combined = adjust_for_target(combined)
        obligations = [
            ob for ob in policy_set.obligations if ob.fulfill_on == combined.collapse().value
        ]
        for decision, child_obligations in child_results:
            if decision.collapse() == combined.collapse():
                obligations.extend(child_obligations)
        return combined, obligations


IndexedElement = Union[IndexedPolicy, IndexedPolicySet]


def _compile_element(element: Union[Policy, PolicySet], stats: IndexStats) -> IndexedElement:
    if isinstance(element, Policy):
        return IndexedPolicy(element, stats)
    return IndexedPolicySet(element, stats)


def compile_target_index(root: Union[Policy, PolicySet]) -> IndexedElement:
    """Compile the attribute-keyed target index for a policy tree."""
    return _compile_element(root, IndexStats())


# -- attribute footprint ------------------------------------------------------


def _expression_footprint(expr: Expression, out: set) -> None:
    if isinstance(expr, AttributeDesignator):
        out.add((expr.category, expr.attribute_id))
    elif isinstance(expr, Apply):
        for argument in expr.arguments:
            _expression_footprint(argument, out)


def _target_footprint(target: Target, out: set) -> None:
    for any_of in target.any_ofs:
        for all_of in any_of.all_ofs:
            for match in all_of.matches:
                out.add((match.designator.category, match.designator.attribute_id))


def attribute_footprint(root: Union[Policy, PolicySet]) -> frozenset[tuple[str, str]]:
    """Every ``(short category, attribute id)`` the tree can ever read.

    A decision is a function of only these attributes — all bag lookups go
    through statically-known designators — so projecting a request onto the
    footprint preserves the decision.  The decision cache keys on this
    projection, making requests that differ only in irrelevant attributes
    (timestamps, padding) share one cache entry.
    """
    from repro.xacml.attributes import Category

    out: set[tuple[str, str]] = set()
    stack: list[Union[Policy, PolicySet]] = [root]
    while stack:
        element = stack.pop()
        _target_footprint(element.target, out)
        if isinstance(element, Policy):
            for rule in element.rules:
                _target_footprint(rule.target, out)
                if rule.condition is not None:
                    _expression_footprint(rule.condition, out)
        else:
            stack.extend(element.children)
    return frozenset((Category.shorten(category), attribute_id) for category, attribute_id in out)
