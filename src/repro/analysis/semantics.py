"""Denotational semantics over policy documents.

This evaluator interprets the *serialized* policy representation (plain
dicts, as stored in the Policy Retrieval Point) against request dicts.  It
shares no code with the object-model evaluator the PDP runs — different
data structures, different traversal — which is the point: the Analyser
needs an oracle whose failure modes are independent of the monitored
component's.  Differential property tests (``tests/test_differential.py``)
pin the two implementations to each other.  :class:`DecisionOracle` answers
through a *compiled* form instead (one target-index compilation per policy
version); the interpreter below remains the definitional reference that
form is pinned against.

The semantics is the XACML 3.0 one:

- match:     ⟦m⟧(q) ∈ {T, F, E}
- target:    conjunction of disjunctions of conjunctions over ⟦m⟧
- rule:      effect guarded by target and condition, errors → Ind{effect}
- policy:    combining algorithm folded over rule meanings
- policyset: combining algorithm folded over child meanings
"""

from __future__ import annotations

import re
from typing import Any

from repro.common.errors import PolicyError
from repro.xacml.context import RequestContext
from repro.xacml.index import compile_target_index
from repro.xacml.parser import policy_from_dict

# Three-valued match outcomes.
_T, _F, _E = "T", "F", "E"

# Decision constants (string-level, aligned with Decision.value).
PERMIT = "Permit"
DENY = "Deny"
NOT_APPLICABLE = "NotApplicable"
IND = "Indeterminate"
IND_P = "Indeterminate{P}"
IND_D = "Indeterminate{D}"
IND_DP = "Indeterminate{DP}"

_INDETERMINATES = {IND, IND_P, IND_D, IND_DP}


class _Error(Exception):
    """Internal evaluation error (→ indeterminate at the enclosing level)."""


def _bag(request: dict, category: str, attribute_id: str) -> list:
    return list(request.get(category, {}).get(attribute_id, []))


# -- function interpretations -----------------------------------------------------

_EQUALITY_FUNCTIONS = frozenset(
    {"string-equal", "integer-equal", "double-equal", "boolean-equal", "time-equal"})


def _interp_function(name: str, args: list) -> Any:
    """Interpret first-order functions over plain values/lists."""
    if name in _EQUALITY_FUNCTIONS:
        _need_arity(name, args, 2)
        return args[0] == args[1]
    if name == "integer-greater-than" or name == "double-greater-than":
        _need_arity(name, args, 2)
        return _num(args[0]) > _num(args[1])
    if name == "integer-greater-than-or-equal":
        _need_arity(name, args, 2)
        return _num(args[0]) >= _num(args[1])
    if name == "integer-less-than" or name == "double-less-than":
        _need_arity(name, args, 2)
        return _num(args[0]) < _num(args[1])
    if name == "integer-less-than-or-equal":
        _need_arity(name, args, 2)
        return _num(args[0]) <= _num(args[1])
    if name == "time-in-range":
        _need_arity(name, args, 3)
        return _num(args[1]) <= _num(args[0]) <= _num(args[2])
    if name == "integer-add":
        return sum(int(_num(a)) for a in args)
    if name == "integer-subtract":
        _need_arity(name, args, 2)
        return int(_num(args[0])) - int(_num(args[1]))
    if name == "integer-multiply":
        out = 1
        for a in args:
            out *= int(_num(a))
        return out
    if name == "double-add":
        return float(sum(_num(a) for a in args))
    if name == "integer-mod":
        _need_arity(name, args, 2)
        return int(_num(args[0])) % int(_num(args[1]))
    if name == "integer-abs":
        _need_arity(name, args, 1)
        return abs(int(_num(args[0])))
    if name == "and":
        return all(_bool(a) for a in args)
    if name == "or":
        return any(_bool(a) for a in args)
    if name == "not":
        _need_arity(name, args, 1)
        return not _bool(args[0])
    if name == "n-of":
        if not args:
            raise _Error("n-of needs a count")
        return sum(1 for a in args[1:] if _bool(a)) >= int(_num(args[0]))
    if name == "string-concatenate":
        return "".join(_str(a) for a in args)
    if name == "string-starts-with":
        _need_arity(name, args, 2)
        return _str(args[1]).startswith(_str(args[0]))
    if name == "string-ends-with":
        _need_arity(name, args, 2)
        return _str(args[1]).endswith(_str(args[0]))
    if name == "string-contains":
        _need_arity(name, args, 2)
        return _str(args[0]) in _str(args[1])
    if name == "string-regexp-match":
        _need_arity(name, args, 2)
        return re.search(_str(args[0]), _str(args[1])) is not None
    if name == "string-normalize-to-lower-case":
        _need_arity(name, args, 1)
        return _str(args[0]).lower()
    if name == "one-and-only":
        _need_arity(name, args, 1)
        bag = _list(args[0])
        if len(bag) != 1:
            raise _Error(f"one-and-only on bag of size {len(bag)}")
        return bag[0]
    if name == "bag-size":
        _need_arity(name, args, 1)
        return len(_list(args[0]))
    if name == "is-in":
        _need_arity(name, args, 2)
        return args[0] in _list(args[1])
    if name == "bag":
        return list(args)
    if name == "intersection":
        _need_arity(name, args, 2)
        right = _list(args[1])
        return [v for v in _list(args[0]) if v in right]
    if name == "union":
        _need_arity(name, args, 2)
        merged = _list(args[0])[:]
        merged.extend(v for v in _list(args[1]) if v not in merged)
        return merged
    if name == "at-least-one-member-of":
        _need_arity(name, args, 2)
        right = _list(args[1])
        return any(v in right for v in _list(args[0]))
    if name == "subset":
        _need_arity(name, args, 2)
        right = _list(args[1])
        return all(v in right for v in _list(args[0]))
    raise _Error(f"uninterpreted function: {name!r}")


def _need_arity(name: str, args: list, arity: int) -> None:
    if len(args) != arity:
        raise _Error(f"{name} expects {arity} args, got {len(args)}")


def _num(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Error(f"not numeric: {value!r}")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise _Error(f"not boolean: {value!r}")
    return value


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise _Error(f"not a string: {value!r}")
    return value


def _list(value: Any) -> list:
    if not isinstance(value, list):
        raise _Error(f"not a bag: {value!r}")
    return value


# -- expression meaning ------------------------------------------------------------

_HIGHER_ORDER = {"any-of", "all-of", "any-of-any"}


def _eval_expression(expr: dict, request: dict) -> Any:
    if "literal" in expr:
        return expr["literal"]
    if "designator" in expr:
        spec = expr["designator"]
        bag = _bag(request, spec["category"], spec["attribute_id"])
        if spec.get("must_be_present") and not bag:
            raise _Error(f"missing mandatory attribute {spec['attribute_id']}")
        return bag
    if "apply" in expr:
        name = expr["apply"]
        raw_args = expr.get("arguments", [])
        if name in _HIGHER_ORDER:
            return _eval_higher_order(name, raw_args, request)
        args = [_eval_expression(arg, request) for arg in raw_args]
        return _interp_function(name, args)
    raise _Error(f"unrecognised expression node: {sorted(expr.keys())}")


def _eval_higher_order(name: str, raw_args: list, request: dict) -> bool:
    if len(raw_args) != 3:
        raise _Error(f"{name} expects 3 arguments")
    fn_expr = raw_args[0]
    if "literal" not in fn_expr:
        raise _Error(f"{name} needs a function-name literal")
    fn = fn_expr["literal"]
    if name == "any-of":
        value = _eval_expression(raw_args[1], request)
        bag = _list(_eval_expression(raw_args[2], request))
        return any(_bool(_interp_function(fn, [value, el])) for el in bag)
    if name == "all-of":
        value = _eval_expression(raw_args[1], request)
        bag = _list(_eval_expression(raw_args[2], request))
        return all(_bool(_interp_function(fn, [value, el])) for el in bag)
    # any-of-any
    bag_a = _list(_eval_expression(raw_args[1], request))
    bag_b = _list(_eval_expression(raw_args[2], request))
    return any(_bool(_interp_function(fn, [a, b])) for a in bag_a for b in bag_b)


# -- target meaning ---------------------------------------------------------------

def _eval_match(match: dict, request: dict) -> str:
    try:
        bag = _bag(request, match["category"], match["attribute_id"])
        for candidate in bag:
            if _bool(_interp_function(match["function"], [match["value"], candidate])):
                return _T
        return _F
    except _Error:
        return _E


def _eval_target(target: list | None, request: dict) -> str:
    """Conjunction over any_ofs of disjunction over all_ofs of conjunction."""
    if not target:
        return _T
    overall = _T
    for any_of in target:
        best = _F
        for all_of in any_of:
            verdict = _T
            for match in all_of:
                m = _eval_match(match, request)
                if m == _F:
                    verdict = _F
                    break
                if m == _E:
                    verdict = _E
            if verdict == _T:
                best = _T
                break
            if verdict == _E:
                best = _E
        if best == _F:
            return _F
        if best == _E:
            overall = _E
    return overall


# -- rule / policy / policy-set meaning ------------------------------------------

def _indeterminate_for(effect: str) -> str:
    return IND_P if effect == PERMIT else IND_D


def _eval_rule(rule: dict, request: dict) -> str:
    effect = rule["effect"]
    target = _eval_target(rule.get("target"), request)
    if target == _F:
        return NOT_APPLICABLE
    if target == _E:
        return _indeterminate_for(effect)
    condition = rule.get("condition")
    if condition is None:
        return effect
    try:
        outcome = _eval_expression(condition, request)
    except _Error:
        return _indeterminate_for(effect)
    if not isinstance(outcome, bool):
        return _indeterminate_for(effect)
    return effect if outcome else NOT_APPLICABLE


def _combine(algorithm: str, decisions: list[str]) -> str:
    if algorithm == "deny-overrides":
        return _combine_overrides(decisions, winner=DENY, loser=PERMIT,
                                  winner_ind=IND_D, loser_ind=IND_P)
    if algorithm == "permit-overrides":
        return _combine_overrides(decisions, winner=PERMIT, loser=DENY,
                                  winner_ind=IND_P, loser_ind=IND_D)
    if algorithm == "first-applicable":
        for decision in decisions:
            if decision == NOT_APPLICABLE:
                continue
            if decision in _INDETERMINATES:
                return IND
            return decision
        return NOT_APPLICABLE
    if algorithm == "only-one-applicable":
        seen: list[str] = []
        for decision in decisions:
            if decision == NOT_APPLICABLE:
                continue
            if decision in _INDETERMINATES:
                return IND
            seen.append(decision)
            if len(seen) > 1:
                return IND
        return seen[0] if seen else NOT_APPLICABLE
    if algorithm == "deny-unless-permit":
        return PERMIT if PERMIT in decisions else DENY
    if algorithm == "permit-unless-deny":
        return DENY if DENY in decisions else PERMIT
    raise PolicyError(f"unknown combining algorithm: {algorithm!r}")


def _combine_overrides(decisions: list[str], winner: str, loser: str,
                       winner_ind: str, loser_ind: str) -> str:
    saw_loser = False
    saw_w_ind = False
    saw_l_ind = False
    saw_dp = False
    for decision in decisions:
        if decision == winner:
            return winner
        if decision == loser:
            saw_loser = True
        elif decision == winner_ind:
            saw_w_ind = True
        elif decision == loser_ind:
            saw_l_ind = True
        elif decision in (IND_DP, IND):
            saw_dp = True
    if saw_dp:
        return IND_DP
    if saw_w_ind and (saw_l_ind or saw_loser):
        return IND_DP
    if saw_w_ind:
        return winner_ind
    if saw_loser:
        return loser
    if saw_l_ind:
        return loser_ind
    return NOT_APPLICABLE


def _adjust_for_target(combined: str) -> str:
    if combined == PERMIT:
        return IND_P
    if combined == DENY:
        return IND_D
    return combined


def evaluate_document(document: dict, request: dict) -> str:
    """⟦document⟧(request) — the expected decision as a string.

    ``document`` is the serialized policy (see :mod:`repro.xacml.parser`);
    ``request`` is the serialized request context.  Extended indeterminates
    are collapsed to ``"Indeterminate"`` at the top level, matching what a
    PDP reports on the wire.
    """
    decision = _eval_element(document, request)
    if decision in _INDETERMINATES:
        return IND
    return decision


def _eval_element(document: dict, request: dict) -> str:
    kind = document.get("kind")
    if kind == "policy":
        target = _eval_target(document.get("target"), request)
        if target == _F:
            return NOT_APPLICABLE
        combined = _combine(document["rule_combining"],
                            [_eval_rule(rule, request) for rule in document["rules"]])
        return _adjust_for_target(combined) if target == _E else combined
    if kind == "policy_set":
        target = _eval_target(document.get("target"), request)
        if target == _F:
            return NOT_APPLICABLE
        combined = _combine(document["policy_combining"],
                            [_eval_element(child, request)
                             for child in document["children"]])
        return _adjust_for_target(combined) if target == _E else combined
    raise PolicyError(f"unknown policy kind: {kind!r}")


class DecisionOracle:
    """The Analyser's oracle for a fixed policy document.

    The document is compiled *once per policy version* into the object
    model and the target index (:mod:`repro.xacml.index`), so each checked
    decision costs an indexed evaluation instead of a full document-tree
    interpretation by :func:`evaluate_document`.

    This trades the interpreter's independence for throughput — the oracle
    shares the object model and the index with the PDP it audits — which is
    sound because the implementations are pinned to each other:
    ``tests/test_differential.py`` holds interpreter ≡ object model on
    random policy trees, ``tests/test_target_index.py`` holds object model
    ≡ index, and ``tests/test_monitoring_fastpath.py`` holds this oracle ≡
    :func:`evaluate_document` on every scenario.
    """

    def __init__(self, document: dict) -> None:
        if document.get("kind") not in ("policy", "policy_set"):
            raise PolicyError("oracle needs a serialized policy document")
        self.document = document
        self.checks = 0
        self._index = compile_target_index(policy_from_dict(document))

    def expected_decision(self, request: "dict | RequestContext") -> str:
        """The decision the policies entail for ``request`` (plain or decoded)."""
        self.checks += 1
        if not isinstance(request, RequestContext):
            request = RequestContext.from_dict(request)
        decision, _obligations = self._index.evaluate_full(request)
        return decision.collapse().value

    def verify(self, request: dict, observed_decision: str) -> bool:
        """Does the observed decision match the policy semantics?"""
        return self.expected_decision(request) == observed_decision
