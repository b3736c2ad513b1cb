"""XACML-style access control engine.

The FaaS access control system the paper monitors is XACML-based: PEPs
intercept requests, the central PDP evaluates policies, decisions flow back
for enforcement.  This package implements the XACML 3.0 core subset those
scenarios need, from scratch:

- attribute model with the four standard categories (:mod:`attributes`),
- request/response contexts and the four-valued (plus extended
  indeterminate) decision algebra (:mod:`context`),
- a typed expression language with the standard function library and
  higher-order bag functions (:mod:`expressions`),
- targets, rules, policies and policy sets (:mod:`policy`),
- the six standard combining algorithms with XACML 3.0 extended
  indeterminate handling (:mod:`combining`),
- a target index pre-compiling rule targets into attribute guards so
  evaluation skips provably non-matching branches (:mod:`index`),
- a PDP evaluator producing decisions plus obligations (:mod:`pdp`),
- JSON (de)serialization for policies and requests (:mod:`parser`).
"""

from repro.xacml.attributes import Category, AttributeId, Bag
from repro.xacml.context import (
    Decision,
    RequestContext,
    ResponseContext,
    Obligation,
    StatusCode,
)
from repro.xacml.expressions import (
    Expression,
    Literal,
    AttributeDesignator,
    Apply,
    EvaluationError,
    FUNCTIONS,
)
from repro.xacml.policy import Match, AllOf, AnyOf, Target, Rule, Policy, PolicySet, Effect
from repro.xacml.combining import RULE_COMBINING, POLICY_COMBINING
from repro.xacml.index import (
    IndexStats,
    IndexedPolicy,
    IndexedPolicySet,
    attribute_footprint,
    compile_target_index,
)
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.parser import policy_to_dict, policy_from_dict

__all__ = [
    "Category",
    "AttributeId",
    "Bag",
    "Decision",
    "RequestContext",
    "ResponseContext",
    "Obligation",
    "StatusCode",
    "Expression",
    "Literal",
    "AttributeDesignator",
    "Apply",
    "EvaluationError",
    "FUNCTIONS",
    "Match",
    "AllOf",
    "AnyOf",
    "Target",
    "Rule",
    "Policy",
    "PolicySet",
    "Effect",
    "RULE_COMBINING",
    "POLICY_COMBINING",
    "IndexStats",
    "IndexedPolicy",
    "IndexedPolicySet",
    "attribute_footprint",
    "compile_target_index",
    "PolicyDecisionPoint",
    "policy_to_dict",
    "policy_from_dict",
]
