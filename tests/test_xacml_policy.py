"""Targets, rules, policies, policy sets, obligations, PDP."""

import pytest

from repro.common.errors import PolicyError
from repro.xacml.attributes import DataType
from repro.xacml.context import Decision, Obligation, RequestContext, StatusCode
from repro.xacml.expressions import Apply, AttributeDesignator, Literal
from repro.xacml.parser import policy_from_dict, policy_to_dict
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.policy import (
    AllOf,
    AnyOf,
    Effect,
    Match,
    MatchResult,
    Policy,
    PolicySet,
    Rule,
    Target,
)


def doctor_request(action="read", role="doctor"):
    return RequestContext.of(
        subject={"subject-id": "alice", "role": role},
        resource={"resource-id": "r1", "type": "medical-record"},
        action={"action-id": action},
    )


def match(function, value, category, attribute_id, data_type=DataType.STRING):
    return Match(function=function, value=value,
                 designator=AttributeDesignator(category, attribute_id, data_type))


class TestMatch:
    def test_match_against_bag(self):
        m = match("string-equal", "doctor", "subject", "role")
        assert m.evaluate(doctor_request()) is MatchResult.MATCH

    def test_no_match(self):
        m = match("string-equal", "admin", "subject", "role")
        assert m.evaluate(doctor_request()) is MatchResult.NO_MATCH

    def test_missing_attribute_is_no_match(self):
        m = match("string-equal", "x", "subject", "ghost")
        assert m.evaluate(doctor_request()) is MatchResult.NO_MATCH

    def test_type_error_is_indeterminate(self):
        m = match("integer-greater-than", 3, "subject", "role", DataType.INTEGER)
        assert m.evaluate(doctor_request()) is MatchResult.INDETERMINATE

    def test_unknown_function_rejected(self):
        with pytest.raises(PolicyError):
            match("no-such-fn", "x", "subject", "role")

    def test_higher_order_rejected(self):
        with pytest.raises(PolicyError):
            match("any-of", "x", "subject", "role")


class TestTarget:
    def test_empty_target_matches_everything(self):
        assert Target.match_all().evaluate(doctor_request()) is MatchResult.MATCH

    def test_single_helper(self):
        target = Target.single("string-equal", "doctor", "subject", "role")
        assert target.evaluate(doctor_request()) is MatchResult.MATCH
        assert target.evaluate(doctor_request(role="nurse")) is MatchResult.NO_MATCH

    def test_anyof_is_disjunction(self):
        target = Target(any_ofs=(AnyOf(all_ofs=(
            AllOf(matches=(match("string-equal", "admin", "subject", "role"),)),
            AllOf(matches=(match("string-equal", "doctor", "subject", "role"),)),
        )),))
        assert target.evaluate(doctor_request()) is MatchResult.MATCH

    def test_allof_is_conjunction(self):
        target = Target(any_ofs=(AnyOf(all_ofs=(
            AllOf(matches=(
                match("string-equal", "doctor", "subject", "role"),
                match("string-equal", "write", "action", "action-id"),
            )),
        )),))
        assert target.evaluate(doctor_request("read")) is MatchResult.NO_MATCH
        assert target.evaluate(doctor_request("write")) is MatchResult.MATCH

    def test_top_level_anyofs_conjoin(self):
        target = Target(any_ofs=(
            Target.single("string-equal", "doctor", "subject", "role").any_ofs[0],
            Target.single("string-equal", "read", "action", "action-id").any_ofs[0],
        ))
        assert target.evaluate(doctor_request("read")) is MatchResult.MATCH
        assert target.evaluate(doctor_request("write")) is MatchResult.NO_MATCH


class TestRule:
    def test_unconditional_rule_returns_effect(self):
        rule = Rule("r", Effect.PERMIT)
        assert rule.evaluate(doctor_request()) is Decision.PERMIT

    def test_target_gates_rule(self):
        rule = Rule("r", Effect.PERMIT,
                    target=Target.single("string-equal", "admin", "subject", "role"))
        assert rule.evaluate(doctor_request()) is Decision.NOT_APPLICABLE

    def test_condition_false_is_not_applicable(self):
        rule = Rule("r", Effect.PERMIT, condition=Literal(False))
        assert rule.evaluate(doctor_request()) is Decision.NOT_APPLICABLE

    def test_condition_error_is_effect_indeterminate(self):
        broken = Apply("one-and-only",
                       (AttributeDesignator("subject", "ghost"),))
        permit_rule = Rule("r", Effect.PERMIT,
                           condition=Apply("string-equal", (broken, Literal("x"))))
        assert permit_rule.evaluate(doctor_request()) is Decision.INDETERMINATE_P
        deny_rule = Rule("r", Effect.DENY,
                         condition=Apply("string-equal", (broken, Literal("x"))))
        assert deny_rule.evaluate(doctor_request()) is Decision.INDETERMINATE_D

    def test_non_boolean_condition_is_indeterminate(self):
        rule = Rule("r", Effect.PERMIT, condition=Literal("not-a-bool"))
        assert rule.evaluate(doctor_request()) is Decision.INDETERMINATE_P


class TestPolicy:
    def test_rules_combine(self):
        policy = Policy("p", "first-applicable", rules=[
            Rule("allow-read", Effect.PERMIT,
                 target=Target.single("string-equal", "read", "action", "action-id")),
            Rule("deny", Effect.DENY),
        ])
        assert policy.evaluate(doctor_request("read")) is Decision.PERMIT
        assert policy.evaluate(doctor_request("write")) is Decision.DENY

    def test_policy_target_gates_all_rules(self):
        policy = Policy("p", "permit-overrides",
                        target=Target.single("string-equal", "admin",
                                             "subject", "role"),
                        rules=[Rule("r", Effect.PERMIT)])
        assert policy.evaluate(doctor_request()) is Decision.NOT_APPLICABLE

    def test_policy_requires_rules(self):
        with pytest.raises(PolicyError):
            Policy("p", "deny-overrides", rules=[])

    def test_unknown_combining_rejected(self):
        with pytest.raises(PolicyError):
            Policy("p", "magic", rules=[Rule("r", Effect.PERMIT)])

    def test_obligations_follow_decision(self):
        policy = Policy("p", "first-applicable",
                        rules=[Rule("r", Effect.PERMIT)],
                        obligations=[
                            Obligation("log-it", "Permit", {"level": "info"}),
                            Obligation("alert", "Deny"),
                        ])
        decision, obligations = policy.evaluate_full(doctor_request())
        assert decision is Decision.PERMIT
        assert [ob.obligation_id for ob in obligations] == ["log-it"]


class TestPolicySet:
    def build_set(self) -> PolicySet:
        records = Policy("records", "first-applicable",
                         target=Target.single("string-equal", "medical-record",
                                              "resource", "type"),
                         rules=[Rule("allow-doctors", Effect.PERMIT,
                                     target=Target.single("string-equal", "doctor",
                                                          "subject", "role")),
                                Rule("deny", Effect.DENY)],
                         obligations=[Obligation("audit", "Permit")])
        return PolicySet("root", "deny-unless-permit", children=[records],
                         obligations=[Obligation("root-log", "Permit")])

    def test_nested_evaluation(self):
        assert self.build_set().evaluate_full(doctor_request())[0] is Decision.PERMIT

    def test_deny_unless_permit_closes_gaps(self):
        request = RequestContext.of(subject={"role": "doctor"},
                                    resource={"type": "unknown-type"},
                                    action={"action-id": "read"})
        assert self.build_set().evaluate_full(request)[0] is Decision.DENY

    def test_obligations_propagate_from_agreeing_children(self):
        decision, obligations = self.build_set().evaluate_full(doctor_request())
        ids = sorted(ob.obligation_id for ob in obligations)
        assert decision is Decision.PERMIT
        assert ids == ["audit", "root-log"]

    def test_disagreeing_child_obligations_not_collected(self):
        request = doctor_request(role="nurse")  # records policy denies
        policy_set = self.build_set()
        decision, obligations = policy_set.evaluate_full(request)
        assert decision is Decision.DENY
        assert obligations == []  # root's obligation is Permit-only

    def test_iter_policies(self):
        assert [p.policy_id for p in self.build_set().iter_policies()] == ["records"]

    def test_empty_policy_set_rejected(self):
        with pytest.raises(PolicyError):
            PolicySet("root", "deny-overrides", children=[])


class TestPdp:
    def test_response_contains_obligations(self):
        policy = Policy("p", "first-applicable",
                        rules=[Rule("r", Effect.PERMIT)],
                        obligations=[Obligation("notify", "Permit")])
        response = PolicyDecisionPoint(policy).evaluate(doctor_request())
        assert response.decision is Decision.PERMIT
        assert response.status_code == StatusCode.OK
        assert [ob.obligation_id for ob in response.obligations] == ["notify"]

    def test_indeterminate_collapses_with_error_status(self):
        broken = Apply("one-and-only", (AttributeDesignator("subject", "ghost"),))
        policy = Policy("p", "first-applicable", rules=[
            Rule("r", Effect.PERMIT,
                 condition=Apply("string-equal", (broken, Literal("x"))))])
        response = PolicyDecisionPoint(policy).evaluate(doctor_request())
        assert response.decision is Decision.INDETERMINATE
        assert response.status_code == StatusCode.PROCESSING_ERROR

    def test_evaluation_counter(self):
        policy = Policy("p", "first-applicable", rules=[Rule("r", Effect.PERMIT)])
        pdp = PolicyDecisionPoint(policy)
        pdp.evaluate(doctor_request())
        pdp.evaluate(doctor_request())
        assert pdp.evaluations == 2

    def test_root_id(self):
        policy = Policy("p", "first-applicable", rules=[Rule("r", Effect.PERMIT)])
        assert PolicyDecisionPoint(policy).root.policy_id == "p"

    def test_rejects_non_policy_root(self):
        with pytest.raises(PolicyError):
            PolicyDecisionPoint({"kind": "policy"})


class TestParserRoundtrip:
    def test_full_tree_roundtrip(self):
        original = TestPolicySet().build_set()
        document = policy_to_dict(original)
        restored = policy_from_dict(document)
        for request in (doctor_request(), doctor_request(role="nurse"),
                        doctor_request(action="write")):
            assert restored.evaluate_full(request)[0] is original.evaluate_full(request)[0]

    def test_roundtrip_is_stable(self):
        document = policy_to_dict(TestPolicySet().build_set())
        assert policy_to_dict(policy_from_dict(document)) == document

    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_dict({"kind": "wizard"})

    def test_missing_fields_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_dict({"kind": "policy", "policy_id": "p"})

    def test_malformed_rule_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_dict({
                "kind": "policy", "policy_id": "p",
                "rule_combining": "deny-overrides",
                "rules": [{"rule_id": "r", "effect": "Maybe"}],
            })
