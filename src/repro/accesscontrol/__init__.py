"""The distributed XACML access control system DRAMS monitors.

Mirrors the FaaS deployment from the paper: PEPs are deployed at each
tenant's edge and intercept all access attempts; the PDP and the policy
management (PRP/PAP) live in the infrastructure tenant; requests and
decisions travel as network messages between them.

Components expose *probe hooks* — callbacks fired at the four monitoring
points (PEP receives request, PDP receives request, PDP issues decision,
PEP enforces decision).  DRAMS probing agents attach there; attacks in
:mod:`repro.threats` compromise the components between hooks, which is
exactly the window the paper's monitoring closes.
"""

from repro.accesscontrol.messages import AccessRequest, AccessDecision, decision_payload
from repro.accesscontrol.context_handler import ContextHandler
from repro.accesscontrol.decision_cache import DecisionCache, project_attributes
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane

__all__ = [
    "AccessRequest",
    "AccessDecision",
    "decision_payload",
    "ContextHandler",
    "DecisionCache",
    "project_attributes",
    "PolicyRetrievalPoint",
    "PolicyAdministrationPoint",
    "PdpService",
    "PolicyEnforcementPoint",
    "SinglePdpPlane",
    "ShardedPdpPlane",
]
