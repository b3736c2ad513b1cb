"""Shared hypothesis strategies for the property suites.

Promoted from the ad-hoc definitions that grew inside
``test_differential.py`` (random XACML policy trees and requests) and
``test_monitoring_fastpath.py`` (random transactions, headers and
JSON-safe argument dicts), plus the scenario-spec strategies the
scenariogen property suite samples federations from.
Import from here; don't re-declare per test file.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.blockchain.block import BlockHeader
from repro.blockchain.transaction import Transaction
from repro.crypto.signatures import SigningKey
from repro.scenariogen.spec import (
    ArrivalSpec,
    FederationShape,
    PopulationSpec,
    ScenarioSpec,
    TreeSpec,
)
from repro.xacml.attributes import DataType

# -- XACML policy-tree strategies (ex test_differential) -----------------------

ROLES = ["doctor", "nurse", "clerk"]
ACTIONS = ["read", "write"]
TYPES = ["record", "report"]

rule_combinings = st.sampled_from(
    ["deny-overrides", "permit-overrides", "first-applicable",
     "deny-unless-permit", "permit-unless-deny"])
policy_combinings = st.sampled_from(
    ["deny-overrides", "permit-overrides", "first-applicable",
     "only-one-applicable", "deny-unless-permit", "permit-unless-deny"])


def match_doc(function, value, category, attribute_id, data_type=DataType.STRING):
    return {"function": function, "value": value, "category": category,
            "attribute_id": attribute_id, "data_type": data_type}


matches = st.one_of(
    st.sampled_from(ROLES).map(
        lambda r: match_doc("string-equal", r, "subject", "role")),
    st.sampled_from(ACTIONS).map(
        lambda a: match_doc("string-equal", a, "action", "action-id")),
    st.sampled_from(TYPES).map(
        lambda t: match_doc("string-equal", t, "resource", "type")),
    st.integers(min_value=1, max_value=5).map(
        lambda n: match_doc("integer-less-than", n, "subject", "clearance",
                            DataType.INTEGER)),
)

targets = st.one_of(
    st.none(),
    st.lists(  # any_ofs
        st.lists(  # all_ofs
            st.lists(matches, min_size=1, max_size=2),
            min_size=1, max_size=2),
        min_size=1, max_size=2),
)

# Conditions: boolean expressions over the same vocabulary; includes
# constructs that can raise (one-and-only over a possibly-missing attribute)
# so indeterminate paths are exercised too.
conditions = st.one_of(
    st.none(),
    st.booleans().map(lambda b: {"literal": b, "data_type": "boolean"}),
    st.sampled_from(ACTIONS).map(lambda a: {
        "apply": "any-of",
        "arguments": [
            {"literal": "string-equal", "data_type": "string"},
            {"literal": a, "data_type": "string"},
            {"designator": {"category": "action", "attribute_id": "action-id",
                            "data_type": "string", "must_be_present": False}},
        ]}),
    st.integers(min_value=1, max_value=5).map(lambda n: {
        "apply": "integer-greater-than-or-equal",
        "arguments": [
            {"apply": "one-and-only", "arguments": [
                {"designator": {"category": "subject",
                                "attribute_id": "clearance",
                                "data_type": "integer",
                                "must_be_present": False}}]},
            {"literal": n, "data_type": "integer"},
        ]}),
    st.just({
        "apply": "one-and-only",
        "arguments": [{"designator": {
            "category": "environment", "attribute_id": "ghost",
            "data_type": "string", "must_be_present": True}}],
    }),
)


@st.composite
def rules(draw, index=0):
    return {
        "rule_id": f"rule-{draw(st.integers(0, 999))}",
        "effect": draw(st.sampled_from(["Permit", "Deny"])),
        "target": draw(targets),
        "condition": draw(conditions),
        "description": "",
    }


@st.composite
def policies(draw):
    return {
        "kind": "policy",
        "policy_id": f"policy-{draw(st.integers(0, 999))}",
        "rule_combining": draw(rule_combinings),
        "target": draw(targets),
        "rules": draw(st.lists(rules(), min_size=1, max_size=4)),
        "obligations": [],
        "description": "",
    }


@st.composite
def policy_sets(draw, depth=1):
    children = st.lists(
        policies() if depth <= 0 else st.one_of(policies(), policy_sets(depth - 1)),
        min_size=1, max_size=3)
    return {
        "kind": "policy_set",
        "policy_set_id": f"set-{draw(st.integers(0, 999))}",
        "policy_combining": draw(policy_combinings),
        "target": draw(targets),
        "children": draw(children),
        "obligations": [],
        "description": "",
    }


documents = st.one_of(policies(), policy_sets(depth=1))


@st.composite
def request_dicts(draw):
    request: dict = {
        "subject": {"role": [draw(st.sampled_from(ROLES))]},
        "action": {"action-id": [draw(st.sampled_from(ACTIONS))]},
        "resource": {"type": [draw(st.sampled_from(TYPES))]},
    }
    if draw(st.booleans()):
        request["subject"]["clearance"] = [draw(st.integers(1, 5))]
    if draw(st.booleans()):
        request["subject"]["role"].append(draw(st.sampled_from(ROLES)))
    return request


# -- monitoring-plane strategies (ex test_monitoring_fastpath) -----------------

FASTPATH_KEY = SigningKey.generate(b"fastpath-tests")

# JSON-safe argument values (what contract calls actually carry).
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
              st.floats(allow_nan=False, allow_infinity=False, width=32),
              st.text(max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)

args_dicts = st.dictionaries(st.text(min_size=1, max_size=8), json_values,
                             max_size=4)


@st.composite
def transactions(draw, signed=st.booleans()):
    tx = Transaction(
        sender=draw(st.sampled_from(["li-1", "li-2", "analyser"])),
        contract="drams-monitor",
        method=draw(st.sampled_from(["record_log", "tick"])),
        args=draw(args_dicts),
        seq=draw(st.integers(1, 10_000)),
        tx_id=f"tx-{draw(st.integers(1, 10_000))}",
    )
    if draw(signed):
        tx.sign(FASTPATH_KEY)
    return tx


@st.composite
def headers(draw):
    return BlockHeader(
        height=draw(st.integers(0, 10_000)),
        prev_hash=draw(st.text(alphabet="0123456789abcdef", min_size=8, max_size=64)),
        merkle_root=draw(st.text(alphabet="0123456789abcdef", min_size=8, max_size=64)),
        timestamp=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        difficulty_bits=draw(st.floats(min_value=1.0, max_value=64.0, allow_nan=False)),
        miner=draw(st.text(min_size=1, max_size=20)),
        nonce=draw(st.integers(0, 2**32)),
    )


def delivery_orders(n: int):
    """Every order ``n`` policy versions might arrive in (ex test_policydist)."""
    return st.permutations(range(n))


# -- scenario-spec strategies --------------------------------------------------

SPEC_ROLE_POOL = ("analyst", "operator", "auditor", "clerk", "bot")


@st.composite
def tree_specs(draw):
    return TreeSpec(
        classes=draw(st.integers(1, 6)),
        depth=draw(st.integers(1, 3)),
        width=draw(st.integers(1, 3)),
        home_write_fraction=draw(st.floats(0.0, 1.0)),
        audited_fraction=draw(st.floats(0.0, 1.0)),
        clearance_fraction=draw(st.floats(0.0, 1.0)),
        deny_tail_fraction=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def scenario_specs(draw):
    """Random tree-synthesised federations, sized for stack-level runs."""
    role_count = draw(st.integers(1, 4))
    return ScenarioSpec(
        name=f"prop-{draw(st.integers(0, 999_999))}",
        roles=SPEC_ROLE_POOL[:role_count],
        tree=draw(tree_specs()),
        federation=FederationShape(clouds=draw(st.integers(1, 3))),
        population=PopulationSpec(
            subjects=draw(st.integers(2, 40)),
            resources=draw(st.integers(4, 80)),
            read_fraction=draw(st.floats(0.3, 1.0)),
            zipf_skew=draw(st.floats(0.8, 1.6)),
        ),
        arrival=ArrivalSpec(
            rate=draw(st.floats(5.0, 200.0)),
            period=draw(st.sampled_from([0.0, 4.0, 8.0])),
            harmonics=draw(st.sampled_from([(), ((24.0, 0.5),)])),
        ),
        description="hypothesis-sampled scenario",
    )
