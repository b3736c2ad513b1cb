"""The Policy Decision Point.

Wraps a root policy element and turns requests into
:class:`~repro.xacml.context.ResponseContext` objects: decision, XACML
status and the obligations the PEP must discharge.  This is the component
DRAMS monitors (a compromised PDP is one of the paper's threat cases), so
the evaluation path is deliberately side-effect free — tampering is modelled
in :mod:`repro.threats`, never here.
"""

from __future__ import annotations

from typing import Union

from repro.common.errors import PolicyError
from repro.xacml.context import Decision, RequestContext, ResponseContext, StatusCode
from repro.xacml.index import compile_target_index
from repro.xacml.policy import Policy, PolicySet


class PolicyDecisionPoint:
    """Evaluates requests against a policy or policy set.

    With ``indexed=True`` the PDP compiles a target index
    (:mod:`repro.xacml.index`) once and evaluates through it, skipping
    rules and policy-set branches whose targets provably cannot match.
    Decisions and obligations are bit-identical either way.
    """

    def __init__(self, root: Union[Policy, PolicySet], indexed: bool = False) -> None:
        if not isinstance(root, (Policy, PolicySet)):
            raise PolicyError(f"PDP root must be Policy or PolicySet, got {type(root)}")
        self.root = root
        self.index = compile_target_index(root) if indexed else None
        self.evaluations = 0

    def evaluate(self, request: RequestContext) -> ResponseContext:
        """Produce the response context for one request."""
        self.evaluations += 1
        evaluator = self.index if self.index is not None else self.root
        try:
            decision, obligations = evaluator.evaluate_full(request)
        except PolicyError as exc:
            return ResponseContext(
                decision=Decision.INDETERMINATE,
                status_code=StatusCode.PROCESSING_ERROR,
                status_message=str(exc),
            )
        status_code = StatusCode.OK
        message = ""
        if decision.is_indeterminate():
            status_code = StatusCode.PROCESSING_ERROR
            message = "evaluation raised an indeterminate result"
        return ResponseContext(
            decision=decision.collapse(),
            status_code=status_code,
            status_message=message,
            obligations=obligations,
        )
