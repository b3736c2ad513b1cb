"""Probing agents.

An agent is an in-process interceptor attached to a monitored component's
probe hooks.  It converts each observation into a :class:`LogEntry` and
ships it to the tenant's Logging Interface as a ``drams_log`` network
message (an intra-tenant hop — agents and LI share the tenant, as in
Figure 1).

The agent deliberately uses the *component's* network identity for that
hop: it is deployed inside the component's runtime, which is also why a
fully compromised component can at worst *suppress* its own probe (modelled
by ``ProbeAgent.suppressed``) — producing a MISSING_LOG detection — but
cannot forge other components' probes, whose log transactions are signed by
their own Logging Interfaces.
"""

from __future__ import annotations

from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.common.errors import ValidationError
from repro.drams.logs import EntryType, LogEntry
from repro.simnet.network import Host


class ProbeAgent:
    """One agent monitoring one component."""

    def __init__(
        self, component_host: Host, tenant: str, component_id: str, li_address: str
    ) -> None:
        self.component_host = component_host
        self.tenant = tenant
        self.component_id = component_id
        self.li_address = li_address
        self.suppressed = False
        self.suppressed_types: set[str] = set()
        self.observations = 0
        self.detached = False
        #: Undo closures :meth:`hook` registers and :meth:`detach` runs.
        self._detachers: list = []

    def detach(self) -> None:
        """Unhook from the monitored component.

        The decision-plane membership protocol calls this on the
        ``"removed"`` event — after the drained shard has finished its
        last in-flight evaluation, so detaching never skips an
        observation — and on the ``"crashed"`` event, where the probe
        (an in-process interceptor) dies with the component it runs in.
        Idempotent; observation counters survive for post-run
        inspection.
        """
        if self.detached:
            return
        self.detached = True
        for undo in self._detachers:
            undo()
        self._detachers.clear()

    def hook(self, requests: list, decisions: list, in_type: str, out_type: str) -> "ProbeAgent":
        """Observe a component's request and decision hooks until :meth:`detach`."""

        def on_request(request: AccessRequest) -> None:
            self.observe(request.correlation(), in_type, request.semantic_payload())

        def on_decision(request: AccessRequest, decision: AccessDecision) -> None:
            self.observe(request.correlation(), out_type, decision.semantic_payload())

        requests.append(on_request)
        decisions.append(on_decision)
        self._detachers.append(lambda: requests.remove(on_request))
        self._detachers.append(lambda: decisions.remove(on_decision))
        return self

    def observe(self, correlation_id: str, entry_type: str, payload: dict) -> None:
        """Record one monitoring point and ship it to the LI."""
        if self.suppressed or entry_type in self.suppressed_types:
            return
        self.observations += 1
        entry = LogEntry(
            correlation_id=correlation_id,
            entry_type=entry_type,
            tenant=self.tenant,
            component=self.component_id,
            # The probe reads the *component's* clock — a fault-plane
            # clock_skew event on the host shows up here, and only here:
            # observation timestamps skew, simulator ordering does not.
            payload=payload,
            observed_at=self.component_host.local_now,
        )
        # The entry travels beside its wire form; the LI takes it as it is.
        host = self.component_host
        host.network.multicast(
            host.address, [self.li_address], "drams_log", entry.to_dict(), decoded=entry
        )


def attach_pep_probes(pep: PolicyEnforcementPoint, li_address: str) -> ProbeAgent:
    """Wire an agent to a PEP's two monitoring points."""
    agent = ProbeAgent(pep, pep.tenant_name, pep.address, li_address)
    hooks = (pep.on_request_intercepted, pep.on_enforce)
    return agent.hook(*hooks, EntryType.PEP_IN, EntryType.PEP_OUT)


def attach_pdp_probes(pdp_service: PdpService, tenant: str, li_address: str) -> ProbeAgent:
    """Wire an agent to the PDP's two monitoring points."""
    agent = ProbeAgent(pdp_service, tenant, pdp_service.address, li_address)
    hooks = (pdp_service.on_request_received, pdp_service.on_decision)
    return agent.hook(*hooks, EntryType.PDP_IN, EntryType.PDP_OUT)


def attach_plane_probes(
    plane: ShardedPdpPlane, tenant: str, li_address: str
) -> dict[str, ProbeAgent]:
    """Wire agents to *every* evaluator replica behind a decision plane.

    Monitoring coverage must follow the plane: a sharded pool with an
    unprobed replica would open a decision path DRAMS never observes.
    The primary replica keeps the historical ``"pdp"`` probe key (threat
    experiments target it); further shards get ``"pdp:<index>"``.  Pair
    this with :func:`follow_plane_membership` so coverage tracks runtime
    membership changes.
    """
    services = plane.services
    if not services:
        raise ValidationError("decision plane has no deployed evaluator services to probe")
    agents: dict[str, ProbeAgent] = {}
    for index, service in enumerate(services):
        key = "pdp" if index == 0 else f"pdp:{index}"
        agents[key] = attach_pdp_probes(service, tenant, li_address)
    return agents


def follow_plane_membership(
    plane: ShardedPdpPlane, probes: dict[str, ProbeAgent], tenant: str, li_address: str
) -> None:
    """Keep ``probes`` in lockstep with a plane's membership events.

    The one membership-to-coverage protocol both DRAMS and the
    centralized baseline follow: a shard announced as ``"added"`` or
    ``"restarted"`` is probed before it can serve a request (guarding
    against double-probe if it is somehow already covered), keyed
    ``"pdp:<address>"``; a shard announced as ``"removed"`` — quiescent,
    off the network — or ``"crashed"`` — the probe is in-process and
    died with it — has its probe detached.  ``"draining"`` keeps its
    probe: in-flight work must stay observed to its last reply.

    The protocol is indifferent to *who* changes membership: harness
    scripts (``add_pdp_shard(at=...)``) and the fault plane's crash and
    restart emit the same events, so every membership change is covered
    without extra wiring (``tests/test_elastic_plane.py`` pins zero alert
    leakage across a full add/drain cycle under traffic).
    """

    def on_membership(event: str, service) -> None:
        if event in ("added", "restarted"):
            if any(
                probe.component_host is service and not probe.detached for probe in probes.values()
            ):
                return
            probes[f"pdp:{service.address}"] = attach_pdp_probes(service, tenant, li_address)
        elif event in ("removed", "crashed"):
            for probe in probes.values():
                if probe.component_host is service:
                    probe.detach()

    plane.on_membership(on_membership)
