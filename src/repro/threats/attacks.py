"""Injectable component-compromise attacks.

Each attack declares the alert types DRAMS is *expected* to raise against
it; the detection experiments score true/false positives against those
declarations.  Attacks install themselves via the components' interceptor
hooks and can be lifted again (for before/after experiments).

Detection map (paper threat → attack class → expected alert):

====================================  ==========================  =====================
Threat (paper Section I/II)           Attack class                Expected alert
====================================  ==========================  =====================
access request modified               RequestTamperAttack         REQUEST_MISMATCH
access response modified              DecisionTamperAttack        DECISION_MISMATCH
PEP circumvents the PDP               CircumventionAttack         MISSING_LOG
evaluation process altered            EvaluationTamperAttack      INCORRECT_DECISION
policy enforced is altered            PolicySwapAttack            INCORRECT_DECISION
probe silenced (monitoring attack)    ProbeSuppressionAttack      MISSING_LOG
LI falsifies logs (monitoring attack) LogTamperAttack             DECISION_MISMATCH
                                      (+ TPM deployments)          / MISSING_LOG
                                                                   + ATTESTATION_FAILURE
request replayed under a known id     ReplayAttack                EQUIVOCATION
PRP replica serves stale policy       StalePolicyReplayAttack     POLICY_VIOLATION
PRP replica serves tampered policy    TamperedPrpReplicaAttack    POLICY_VIOLATION
====================================  ==========================  =====================

The two PRP-replica attacks extend the catalogue to the policy
distribution plane and require a replicated one
(:class:`~repro.policydist.plane.ReplicatedPrpPlane`): they compromise
*one consumer's replica*, and detection rests on the Analyser holding an
independent replica of the policy history.  Against a shared single store
they would silently rewrite the auditor's own view, so injection refuses
that topology instead of faking a detection story.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Optional

from repro.common.errors import ValidationError
from repro.drams.alerts import AlertType
from repro.drams.logs import EntryType, LogEntry
from repro.drams.system import DramsSystem, li_measurement
from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.prp import PolicyVersion
from repro.policydist.replica import PrpReplica
from repro.xacml.parser import policy_from_dict
from repro.xacml.pdp import PolicyDecisionPoint


class Attack(ABC):
    """Base class: installable, liftable, self-describing compromise."""

    #: Stable name used in reports.
    name: str = ""
    #: Alert types whose appearance counts as detecting this attack.
    expected_alerts: tuple[AlertType, ...] = ()

    def __init__(self) -> None:
        self.active = False
        self.injected_at: Optional[float] = None
        self.affected_correlations: list[str] = []

    @abstractmethod
    def inject(self, drams: DramsSystem) -> None:
        """Install the compromise."""

    @abstractmethod
    def lift(self, drams: DramsSystem) -> None:
        """Remove the compromise."""

    def _mark_injected(self, drams: DramsSystem) -> None:
        self.active = True
        self.injected_at = drams.federation.sim.now

    def _tenant_pep(self, drams: DramsSystem, tenant: str):
        try:
            return drams.peps[tenant]
        except KeyError:
            raise ValidationError(f"no PEP deployed in tenant {tenant!r}") from None


class RequestTamperAttack(Attack):
    """Compromised PEP escalates the subject's attributes before forwarding.

    The PDP evaluates a request the subject never made; the PEP-in and
    PDP-in hash commitments diverge.  Secondary detection path: if the
    Analyser audits the decision before the (forged) pdp-in log lands, it
    re-derives the expected decision from the *pep-in* plaintext — the
    request the subject actually made — and reports the decision as
    incorrect, which is semantically true under this attack.
    """

    name = "request-tamper"
    expected_alerts = (AlertType.REQUEST_MISMATCH, AlertType.INCORRECT_DECISION)

    def __init__(self, tenant: str, attribute: str = "role",
                 escalated_value: str = "admin") -> None:
        super().__init__()
        self.tenant = tenant
        self.attribute = attribute
        self.escalated_value = escalated_value

    def inject(self, drams: DramsSystem) -> None:
        pep = self._tenant_pep(drams, self.tenant)

        def tamper(request: AccessRequest) -> AccessRequest:
            self.affected_correlations.append(request.correlation())
            forged = copy.deepcopy(request)
            subject = forged.content.setdefault("subject", {})
            subject[self.attribute] = [self.escalated_value]
            return forged

        pep.forward_interceptor = tamper
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        self._tenant_pep(drams, self.tenant).forward_interceptor = None
        self.active = False


class DecisionTamperAttack(Attack):
    """Compromised PEP enforces Permit regardless of the PDP's answer.

    The PDP-out and PEP-out hash commitments diverge whenever the true
    decision was not Permit.
    """

    name = "decision-tamper"
    expected_alerts = (AlertType.DECISION_MISMATCH,)

    def __init__(self, tenant: str, forced_decision: str = "Permit") -> None:
        super().__init__()
        self.tenant = tenant
        self.forced_decision = forced_decision

    def inject(self, drams: DramsSystem) -> None:
        pep = self._tenant_pep(drams, self.tenant)

        def tamper(request: AccessRequest, decision: AccessDecision) -> AccessDecision:
            self.affected_correlations.append(request.correlation())
            forged = copy.deepcopy(decision)
            forged.decision = self.forced_decision
            return forged

        pep.enforcement_interceptor = tamper
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        self._tenant_pep(drams, self.tenant).enforcement_interceptor = None
        self.active = False


class CircumventionAttack(Attack):
    """Compromised PEP never consults the PDP and grants locally.

    No PDP-side log entries ever appear; the timeout sweep flags the
    correlation.
    """

    name = "pdp-circumvention"
    expected_alerts = (AlertType.MISSING_LOG,)

    def __init__(self, tenant: str, granted_decision: str = "Permit") -> None:
        super().__init__()
        self.tenant = tenant
        self.granted_decision = granted_decision

    def inject(self, drams: DramsSystem) -> None:
        pep = self._tenant_pep(drams, self.tenant)

        def fabricate(request: AccessRequest) -> AccessDecision:
            self.affected_correlations.append(request.correlation())
            return AccessDecision(
                request_id=request.request_id,
                decision=self.granted_decision,
                status_code="fabricated",
                decided_at=pep.sim.now,
            )

        pep.bypass = fabricate
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        self._tenant_pep(drams, self.tenant).bypass = None
        self.active = False


class EvaluationTamperAttack(Attack):
    """Compromised PDP evaluation flips Deny to Permit.

    Both hash legs agree (the tampered decision is logged consistently at
    PDP-out and PEP-out), so only the Analyser's independent re-derivation
    exposes it.
    """

    name = "evaluation-tamper"
    expected_alerts = (AlertType.INCORRECT_DECISION,)

    def __init__(self, flip_from: str = "Deny", flip_to: str = "Permit") -> None:
        super().__init__()
        self.flip_from = flip_from
        self.flip_to = flip_to

    def inject(self, drams: DramsSystem) -> None:
        def tamper(request: AccessRequest, decision: AccessDecision) -> AccessDecision:
            if decision.decision != self.flip_from:
                return decision
            self.affected_correlations.append(request.correlation())
            forged = copy.deepcopy(decision)
            forged.decision = self.flip_to
            return forged

        drams.pdp_service.evaluation_interceptor = tamper
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        drams.pdp_service.evaluation_interceptor = None
        self.active = False


class PolicySwapAttack(Attack):
    """The policy the PDP enforces is replaced with a permissive rogue one.

    The PRP (and hence the Analyser) still holds the legitimate policy, so
    every decision that differs under the rogue policy is reported as
    incorrect.
    """

    name = "policy-swap"
    expected_alerts = (AlertType.INCORRECT_DECISION,)

    def __init__(self, rogue_document: dict) -> None:
        super().__init__()
        self.rogue_document = rogue_document

    def inject(self, drams: DramsSystem) -> None:
        drams.pdp_service.policy_override = PolicyDecisionPoint(
            policy_from_dict(self.rogue_document))
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        drams.pdp_service.policy_override = None
        self.active = False


class ProbeSuppressionAttack(Attack):
    """A probing agent is silenced (monitoring-infrastructure attack).

    The suppressed monitoring point stops producing log entries; the
    timeout sweep reports them missing.
    """

    name = "probe-suppression"
    expected_alerts = (AlertType.MISSING_LOG,)

    def __init__(self, probe_key: str, entry_types: tuple[str, ...] = ()) -> None:
        super().__init__()
        self.probe_key = probe_key
        self.entry_types = entry_types

    def inject(self, drams: DramsSystem) -> None:
        try:
            probe = drams.probes[self.probe_key]
        except KeyError:
            raise ValidationError(f"no probe {self.probe_key!r}; "
                                  f"have {sorted(drams.probes)}") from None
        if self.entry_types:
            probe.suppressed_types.update(self.entry_types)
        else:
            probe.suppressed = True
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        probe = drams.probes[self.probe_key]
        probe.suppressed = False
        probe.suppressed_types.difference_update(self.entry_types)
        self.active = False


class LogTamperAttack(Attack):
    """A compromised Logging Interface falsifies log entries before storage.

    Without a TPM the forged commitment disagrees with the honest side of
    the leg (mismatch alerts).  With a TPM the compromise changes the
    platform measurement: the federation key no longer unseals, the LI
    falls silent (missing-log alerts) and attestation rounds flag it.
    """

    name = "log-tamper"
    expected_alerts = (AlertType.DECISION_MISMATCH, AlertType.MISSING_LOG,
                       AlertType.ATTESTATION_FAILURE)

    def __init__(self, tenant: str, forged_decision: str = "Deny") -> None:
        super().__init__()
        self.tenant = tenant
        self.forged_decision = forged_decision

    def inject(self, drams: DramsSystem) -> None:
        try:
            li = drams.interfaces[self.tenant]
        except KeyError:
            raise ValidationError(f"no logging interface in {self.tenant!r}") from None

        def tamper(entry: LogEntry) -> LogEntry:
            if entry.entry_type != EntryType.PEP_OUT:
                return entry
            self.affected_correlations.append(entry.correlation_id)
            forged_payload = dict(entry.payload)
            forged_payload["decision"] = self.forged_decision
            return LogEntry(
                correlation_id=entry.correlation_id,
                entry_type=entry.entry_type,
                tenant=entry.tenant,
                component=entry.component,
                payload=forged_payload,
                observed_at=entry.observed_at,
            )

        li.tamper_interceptor = tamper
        if li.tpm is not None:
            # Modifying the LI's code changes its measured state.
            li.tpm.extend_pcr({"malicious-patch": self.name})
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        li = drams.interfaces[self.tenant]
        li.tamper_interceptor = None
        if li.tpm is not None:
            # Clean code reinstalled and the platform rebooted: the PCR is
            # back to the measurement the federation key was sealed under.
            li.tpm.reset()
            li.tpm.extend_pcr(li_measurement(li.address))
        self.active = False


class ReplayAttack(Attack):
    """A captured request id is reused to smuggle a different access.

    The attacker re-submits a previously-granted request envelope with the
    content swapped for the access they actually want; the correlation id
    collides with the original, so the monitor contract sees a second,
    different payload for an already-recorded monitoring point.
    """

    name = "replay"
    expected_alerts = (AlertType.EQUIVOCATION,)

    def __init__(self, tenant: str) -> None:
        super().__init__()
        self.tenant = tenant
        self._captured: Optional[AccessRequest] = None

    def inject(self, drams: DramsSystem) -> None:
        pep = self._tenant_pep(drams, self.tenant)

        def capture(request: AccessRequest) -> None:
            if self._captured is None:
                self._captured = copy.deepcopy(request)

        pep.on_request_intercepted.append(capture)
        self._capture_hook = capture
        self._mark_injected(drams)

    def replay_now(self, drams: DramsSystem, forged_subject: dict) -> Optional[str]:
        """Fire the replay using the captured envelope; returns the corr id."""
        if self._captured is None:
            return None
        pep = self._tenant_pep(drams, self.tenant)
        forged = copy.deepcopy(self._captured)
        forged.content["subject"] = {key: value if isinstance(value, list) else [value]
                                     for key, value in forged_subject.items()}
        correlation = forged.correlation()
        self.affected_correlations.append(correlation)
        pep.submit(forged)
        return correlation

    def lift(self, drams: DramsSystem) -> None:
        pep = self._tenant_pep(drams, self.tenant)
        if self._capture_hook in pep.on_request_intercepted:
            pep.on_request_intercepted.remove(self._capture_hook)
        self.active = False


class _PrpReplicaAttack(Attack):
    """Shared plumbing for attacks on one PDP shard's PRP replica."""

    def __init__(self, shard: int = 0) -> None:
        super().__init__()
        self.shard = shard
        self._tracker = None

    def _shard_replica(self, drams: DramsSystem) -> PrpReplica:
        try:
            service = drams.pdp_services[self.shard]
        except IndexError:
            raise ValidationError(
                f"no PDP shard {self.shard}; plane has "
                f"{len(drams.pdp_services)} replicas") from None
        replica = service.prp
        if not isinstance(replica, PrpReplica):
            raise ValidationError(
                f"{self.name} needs a replicated policy distribution plane "
                "(ReplicatedPrpPlane): with a shared single store the "
                "compromise would rewrite the Analyser's own policy view")
        return replica

    def _track_shard_requests(self, drams: DramsSystem) -> None:
        """Every request the compromised shard evaluates is attributable."""
        service = drams.pdp_services[self.shard]

        def track(request: AccessRequest) -> None:
            self.affected_correlations.append(request.correlation())

        service.on_request_received.append(track)
        self._tracker = track

    def _untrack(self, drams: DramsSystem) -> None:
        service = drams.pdp_services[self.shard]
        if self._tracker in service.on_request_received:
            service.on_request_received.remove(self._tracker)
        self._tracker = None


class StalePolicyReplayAttack(_PrpReplicaAttack):
    """A compromised PRP replica freezes and keeps serving a superseded policy.

    The shard's decisions stay internally consistent (both hash legs
    agree) and their provenance stamp names a *genuine* historical
    version, so nothing mismatches on-chain.  Once the federation has
    published more than ``policy_staleness_bound`` newer versions, the
    Analyser's skew audit flags every further decision from the frozen
    replica.  Detection therefore requires policy churn after injection —
    the E12 experiment publishes the scenario's policy variants mid-run.
    """

    name = "stale-policy-replay"
    expected_alerts = (AlertType.POLICY_VIOLATION,)

    def inject(self, drams: DramsSystem) -> None:
        replica = self._shard_replica(drams)
        replica.frozen = True
        self._track_shard_requests(drams)
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        replica = self._shard_replica(drams)
        replica.frozen = False  # anti-entropy re-converges the replica
        self._untrack(drams)
        self.active = False


class TamperedPrpReplicaAttack(_PrpReplicaAttack):
    """A compromised PRP replica serves a tampered policy document.

    The attacker rewrites the replica's head version in place (e.g. a
    permit-all document), so the shard evaluates — and honestly stamps —
    a policy whose fingerprint appears in no publisher's history.  The
    Analyser's provenance audit reports ``policy-violation`` with reason
    ``unknown-policy-fingerprint`` once its grace window for replica lag
    expires; decisions that differ under the legitimate policy would
    additionally surface as ``incorrect-decision`` re-derivations.
    """

    name = "tampered-prp-replica"
    expected_alerts = (AlertType.POLICY_VIOLATION, AlertType.INCORRECT_DECISION)

    def __init__(self, rogue_document: dict, shard: int = 0) -> None:
        super().__init__(shard=shard)
        policy_from_dict(rogue_document)  # must parse, or the shard crashes
        self.rogue_document = rogue_document
        self._original: Optional[PolicyVersion] = None

    def inject(self, drams: DramsSystem) -> None:
        replica = self._shard_replica(drams)
        head = replica.current()
        self._original = head
        # In-place head swap: version number and provenance metadata are
        # kept, but the fingerprint (a content hash) necessarily changes —
        # the attacker cannot forge a colliding document.  The shard's
        # compiled-PDP and decision caches key on the fingerprint, so the
        # rogue policy takes effect on the next evaluation.
        replica._versions[-1] = PolicyVersion(
            version=head.version,
            document=self.rogue_document,
            published_at=head.published_at,
            publisher=head.publisher,
        )
        self._track_shard_requests(drams)
        self._mark_injected(drams)

    def lift(self, drams: DramsSystem) -> None:
        replica = self._shard_replica(drams)
        if self._original is not None:
            replica._versions[-1] = self._original
            self._original = None
        self._untrack(drams)
        self.active = False


#: Name → constructor hints for the detection experiments.
ATTACK_CATALOGUE = {
    RequestTamperAttack.name: RequestTamperAttack,
    DecisionTamperAttack.name: DecisionTamperAttack,
    CircumventionAttack.name: CircumventionAttack,
    EvaluationTamperAttack.name: EvaluationTamperAttack,
    PolicySwapAttack.name: PolicySwapAttack,
    ProbeSuppressionAttack.name: ProbeSuppressionAttack,
    LogTamperAttack.name: LogTamperAttack,
    ReplayAttack.name: ReplayAttack,
    StalePolicyReplayAttack.name: StalePolicyReplayAttack,
    TamperedPrpReplicaAttack.name: TamperedPrpReplicaAttack,
}
