"""Differential testing: the PDP vs the Analyser's independent semantics.

DRAMS's decision-correctness checking is only as good as the agreement
between the engine that *makes* decisions (object model,
:mod:`repro.xacml`) and the oracle that *audits* them (document
interpreter, :mod:`repro.analysis.semantics`).  These hypothesis tests
generate random policy trees and random requests over a small attribute
vocabulary and require the two implementations to agree exactly.
"""

from hypothesis import given, settings

from repro.analysis.semantics import evaluate_document
from repro.xacml.context import RequestContext
from repro.xacml.parser import policy_from_dict
from repro.xacml.pdp import PolicyDecisionPoint

from tests.strategies import documents, request_dicts


class TestDifferential:
    @given(documents, request_dicts())
    @settings(max_examples=300, deadline=None)
    def test_pdp_and_oracle_agree(self, document, request):
        oracle_decision = evaluate_document(document, request)
        pdp = PolicyDecisionPoint(policy_from_dict(document))
        pdp_decision = pdp.evaluate(RequestContext.from_dict(request)).decision.value
        assert pdp_decision == oracle_decision, (
            f"disagreement on {request}: pdp={pdp_decision} "
            f"oracle={oracle_decision}\npolicy={document}")

    @given(documents, request_dicts())
    @settings(max_examples=100, deadline=None)
    def test_oracle_expected_decision_matches_pdp(self, document, request):
        from repro.analysis.semantics import DecisionOracle

        pdp = PolicyDecisionPoint(policy_from_dict(document))
        observed = pdp.evaluate(RequestContext.from_dict(request)).decision.value
        assert DecisionOracle(document).expected_decision(request) == observed
