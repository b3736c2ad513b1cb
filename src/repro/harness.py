"""One-call deployment of the full monitored federation.

Every example and benchmark builds the same stack: a federation, the
XACML access control components deployed over it, a workload and (usually)
DRAMS on top.  :class:`MonitoredFederation` packages that wiring so
experiment code reads as *what* is measured, not *how* the pieces connect.

The decision plane is topology configuration: ``build(plane=...)`` accepts
any :class:`~repro.accesscontrol.plane.ShardedPdpPlane` and defaults to
:class:`~repro.accesscontrol.plane.SinglePdpPlane` (the paper's single
evaluator, bit-identical to the pre-plane wiring).  Pass
``ShardedPdpPlane(shards=4)`` to deploy a consistent-hashed PDP pool
instead; PEPs, DRAMS probes and the baselines all follow the plane —
including the runtime membership changes that
:meth:`MonitoredFederation.add_pdp_shard` /
:meth:`MonitoredFederation.drain_pdp_shard` schedule mid-run (see
``docs/elasticity.md``).

So is the policy distribution plane: ``build(policy_plane=...)`` accepts
any :class:`~repro.policydist.plane.PolicyDistributionPlane` and defaults
to :class:`~repro.policydist.plane.SingleStorePlane` (one shared PRP,
bit-identical to the hard-wired store).  Pass
``ReplicatedPrpPlane(propagation_delay=...)`` to give every PDP shard and
the Analyser its own propagation-fed replica; the PAP keeps publishing
against the plane's authority store, and ``publish_policy`` stamps
mid-run publishes with the current simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.accesscontrol.pap import PolicyAdministrationPoint
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import EnforcedAccess, PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane, SinglePdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.common.errors import ValidationError
from repro.common.ids import short_hash
from repro.crypto.hashing import hash_value
from repro.drams.system import DramsConfig, DramsSystem
from repro.federation.federation import Federation, FederationConfig
from repro.metrics.recorder import percentile
from repro.metrics.windowed import WindowedMetrics
from repro.telemetry.stack import StackTelemetry
from repro.policydist.plane import PolicyDistributionPlane, SingleStorePlane
from repro.workload.generator import GeneratedRequest, RequestGenerator
from repro.workload.scenarios import Scenario


@dataclass
class StreamHandle:
    """Progress of one issuance; ``metrics`` is the stack's outcome fold."""

    issued: int = 0
    last_at: float = 0.0
    metrics: Optional[WindowedMetrics] = None


@dataclass
class MonitoredFederation:
    """A federation with access control, workload and (optional) DRAMS."""

    scenario: Scenario
    federation: Federation
    prp: PolicyRetrievalPoint
    pap: PolicyAdministrationPoint
    plane: ShardedPdpPlane
    peps: dict[str, PolicyEnforcementPoint]
    generator: RequestGenerator
    policy_plane: PolicyDistributionPlane = field(default_factory=SingleStorePlane)
    drams: Optional[DramsSystem] = None
    #: Every enforced outcome of every issuance, folded in constant memory.
    metrics: WindowedMetrics = field(default_factory=WindowedMetrics)
    #: The enforced outcomes themselves, kept only by recording issuances.
    outcomes: list[EnforcedAccess] = field(default_factory=list)
    issued: int = 0
    telemetry: Optional[StackTelemetry] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        scenario: Scenario,
        clouds: int = 2,
        seed: int = 7,
        drams_config: Optional[DramsConfig] = None,
        with_drams: bool = True,
        federation_config: Optional[FederationConfig] = None,
        plane: Optional[ShardedPdpPlane] = None,
        policy_plane: Optional[PolicyDistributionPlane] = None,
        pep_kwargs: Optional[dict] = None,
        light_clients: "bool | list[str]" = False,
        telemetry: bool = False,
    ) -> "MonitoredFederation":
        """Deploy the standard stack for ``scenario``.

        ``plane`` configures the decision plane topology (default: one
        PDP evaluator); ``policy_plane`` configures how policy reaches it
        (default: one shared store).  ``with_drams=False`` yields the
        unmonitored system (the E7 overhead experiment's control arm and
        the baseline experiments' substrate).  ``pep_kwargs`` is forwarded
        to every deployed :class:`PolicyEnforcementPoint` — the fault
        benchmarks use it to shorten ``request_timeout`` and install a
        ``RetryBackoff`` without changing the default topology.
        ``telemetry=True`` attaches a :class:`StackTelemetry` (causal
        tracer, critical paths, trace exporters) to the finished stack.
        ``light_clients=True`` attaches a sideband light auditor (header
        client + receipt consumer, see :mod:`repro.lightclient`) to every
        member tenant's PEP — or to a named subset when given a list;
        it requires ``with_drams``.  Both are pure observation:
        ``tests/test_neutrality.py`` pins a run with either attached to
        the same :meth:`fingerprint` as the run without.
        """
        fed_config = federation_config or FederationConfig(
            name=f"faas-{scenario.name}", cloud_count=clouds, seed=seed
        )
        federation = Federation(fed_config)

        policy_plane = policy_plane if policy_plane is not None else SingleStorePlane()
        policy_plane.deploy(federation)
        prp = policy_plane.authority
        infra_name = federation.infrastructure_tenant.name
        pap = PolicyAdministrationPoint(prp, administrator=f"pap@{infra_name}")
        pap.publish(scenario.policy_document)

        plane = plane if plane is not None else SinglePdpPlane()
        plane.deploy(federation, policy_plane)

        peps: dict[str, PolicyEnforcementPoint] = {}
        for tenant in federation.member_tenants:
            pep = PolicyEnforcementPoint(
                federation.network, tenant.address("pep"), tenant.name, plane,
                **(pep_kwargs or {})
            )
            tenant.register_host(pep.address)
            peps[tenant.name] = pep

        generator = RequestGenerator(scenario.workload, federation.rng.fork("scenario-workload"))
        drams = None
        if with_drams:
            drams = DramsSystem(federation, policy_plane, plane, peps,
                                drams_config or DramsConfig())
            if light_clients:
                drams.attach_light_clients(
                    None if light_clients is True else list(light_clients))
        elif light_clients:
            raise ValidationError("light_clients requires with_drams=True")
        else:
            federation.finalize_topology()
        stack = cls(
            scenario=scenario,
            federation=federation,
            prp=prp,
            pap=pap,
            plane=plane,
            peps=peps,
            generator=generator,
            policy_plane=policy_plane,
            drams=drams,
        )
        if telemetry:
            stack.telemetry = StackTelemetry(stack)
        return stack

    # -- lifecycle -----------------------------------------------------------------

    @property
    def sim(self):
        return self.federation.sim

    @property
    def pdp_service(self) -> PdpService:
        """The plane's primary evaluator (threat experiments target it)."""
        return self.plane.services[0]

    @property
    def pdp_services(self) -> list[PdpService]:
        """Every evaluator replica behind the plane."""
        return self.plane.services

    @property
    def light_clients(self) -> dict:
        """Attached light auditors by tenant name (empty without DRAMS)."""
        return self.drams.light_clients if self.drams is not None else {}

    def start(self) -> None:
        if self.drams is not None:
            self.drams.start()

    # -- policy churn ----------------------------------------------------------------

    def publish_policy(self, document: dict, at: Optional[float] = None):
        """Publish a new policy version through the PAP.

        With ``at=None`` the publish happens immediately, stamped with the
        current simulated time; otherwise it is scheduled for simulated
        time ``at`` (mid-traffic churn).  Either way it propagates through
        the deployed policy distribution plane.
        """
        if at is None:
            return self.pap.publish(document, published_at=self.sim.now)
        return self.sim.schedule_at(
            at, lambda: self.pap.publish(document, published_at=self.sim.now)
        )

    def run(self, until: Optional[float] = None) -> int:
        return self.sim.run(until=until)

    # -- elastic decision plane ------------------------------------------------------

    def add_pdp_shard(self, at: Optional[float] = None):
        """Grow the decision plane by one shard, now or at simulated ``at``.

        Monitoring probes attach through the plane's membership events,
        so a shard added mid-run is covered before its first request.
        """
        if at is None:
            return self.plane.add_shard()
        return self.sim.schedule_at(at, lambda: self.plane.add_shard())

    def drain_pdp_shard(self, address: Optional[str] = None, at: Optional[float] = None):
        """Drain one shard (default: the newest), now or at simulated ``at``."""
        if at is None:
            return self.plane.drain_shard(address)
        return self.sim.schedule_at(at, lambda: self.plane.drain_shard(address))

    # -- fault injection ---------------------------------------------------------------

    def inject_faults(self, plan):
        """Arm a scripted fault timeline against this stack.

        ``plan`` is a :class:`~repro.faults.FaultPlan`; returns the armed
        :class:`~repro.faults.ChaosController`, whose
        :class:`~repro.faults.RecoveryRecorder` accumulates the recovery
        SLOs as the timeline executes.  An empty plan arms nothing and
        perturbs nothing (``tests/test_neutrality.py`` pins it).
        """
        from repro.faults import ChaosController

        return ChaosController.for_stack(self, plan).arm()

    # -- workload ------------------------------------------------------------------

    def issue_requests(self, count: int, start_at: float = 0.5) -> list[GeneratedRequest]:
        """Schedule ``count`` generated requests onto the PEPs, recorded.

        A batch is a stream whose request list is materialised (and
        returned) and whose outcomes are kept in ``self.outcomes``; it is
        scheduled exactly as :meth:`issue_stream` schedules.
        """
        issued = list(self.generator.requests(count, start_at=start_at))
        self._issue(iter(issued), record_outcomes=True)
        return issued

    def issue_stream(
        self, count: int, start_at: float = 0.5, record_outcomes: bool = False
    ) -> StreamHandle:
        """Stream ``count`` generated requests through the PEPs.

        One pending workload event exists at a time: each dispatch pulls
        the next request off the (lazy) generator and schedules it before
        enforcing its own.  Every outcome folds into ``self.metrics``;
        ``self.outcomes`` keeps them only with ``record_outcomes=True``,
        so a 10⁶-user / 10⁶-request run's footprint is flat in the run
        length.  The request sequence (subjects, resources, arrival
        times, owner stamps) is the one :meth:`issue_requests` draws.
        """
        return self._issue(self.generator.requests(count, start_at=start_at), record_outcomes)

    def _issue(self, stream: Iterator[GeneratedRequest], record_outcomes: bool) -> StreamHandle:
        """Route ``stream`` onto the PEPs, pull-one/schedule-one."""
        tenants = sorted(self.peps)
        if not tenants:
            raise ValidationError("no PEPs deployed")
        handle = StreamHandle(metrics=self.metrics)

        def record(outcome: EnforcedAccess) -> None:
            self.metrics.observe(self.sim.now, outcome.latency, outcome.granted)
            if record_outcomes:
                self.outcomes.append(outcome)

        self._schedule_next(stream, tenants, record, handle)
        return handle

    def _schedule_next(
        self,
        stream: Iterator[GeneratedRequest],
        tenants: list[str],
        record: Callable[[EnforcedAccess], None],
        handle: StreamHandle,
    ) -> None:
        """Schedule the next request of ``stream``, if any.

        It enters through a round-robin member tenant's PEP at its
        arrival time; its resource is stamped with an owner tenant so the
        scenarios' locality rules are exercised.  A method rather than a
        self-calling closure: that closure would be a reference cycle
        holding the whole stack until the cyclic collector runs.
        """
        request = next(stream, None)
        if request is None:
            return
        tenant = tenants[request.index % len(tenants)]
        resource = dict(request.resource)
        # Stable assignment (string hash() is salted per process).
        owner_index = int(short_hash(resource["resource-id"]), 16) % len(tenants)
        resource.setdefault("owner-tenant", tenants[owner_index])

        def dispatch() -> None:
            # Arm the next arrival before enforcing this one, so the
            # workload never holds more than one pending event.
            self._schedule_next(stream, tenants, record, handle)
            self.peps[tenant].request_access(
                subject=request.subject,
                resource=resource,
                action=request.action,
                callback=record,
            )

        self.sim.schedule_at(request.at, dispatch)
        handle.issued += 1
        handle.last_at = request.at
        self.issued += 1

    # -- measurements -----------------------------------------------------------------

    def access_latencies(self) -> list[float]:
        return [outcome.latency for outcome in self.outcomes]

    def fingerprint(self) -> dict:
        """What two runs must agree on to be the same run.

        ``decisions`` keys every enforced outcome on arrival time and
        request content, not request id: ids are minted in
        topology-dependent order, while both of those are generator-driven.
        An observer (telemetry, light clients, an idle fault plane) must
        leave the whole dict equal; a change of decision plane topology
        must leave ``decisions`` and ``alerts`` equal.
        ``chain_head`` and ``checked`` are ``None`` without DRAMS.  Raises
        :class:`ValidationError` unless every enforced outcome was
        recorded: two runs that kept none would otherwise compare equal.
        """
        if len(self.outcomes) != self.metrics.count:
            raise ValidationError(
                f"fingerprint needs every outcome recorded: {len(self.outcomes)} of "
                f"{self.metrics.count} kept (issue with record_outcomes=True)")
        drams = self.drams
        decisions = sorted(
            (
                round(o.requested_at, 9),
                hash_value(o.request.content),
                o.decision.decision,
                hash_value(o.decision.obligations),
                o.decision.status_code,
                o.decision.policy_version,
                o.decision.policy_fingerprint,
            )
            for o in self.outcomes
        )
        return {
            "decisions": decisions,
            "alerts": sorted(a.alert_type.value for a in drams.alerts.all()) if drams else [],
            "chain_head": drams.reference_chain().head.hash if drams else None,
            "checked": drams.analyser.checked if drams else None,
        }

    def run_summary(self) -> dict:
        """The one view of a finished run: outcomes, planes, PEPs, traffic.

        ``enforced``, ``grant_rate`` and the ``latency`` count / mean /
        max fold every enforced outcome (``self.metrics``), streamed or
        not; ``p50`` / ``p95`` join them when every outcome was recorded.
        The ``network`` block is :class:`~repro.simnet.network.
        NetworkStats` (message and wire-byte totals, drops including
        ``dropped_dead``, per-kind traffic, and the messages each host
        dropped as malformed, by address and kind); ``plane`` and
        ``policy_plane`` are each plane's ``describe()`` and ``stats()``;
        ``peps`` is per enforcement point.  DRAMS' ``stats()`` tree and,
        with telemetry attached, the tracer's span counters ride along.
        """
        peps = self.peps
        metrics = self.metrics
        summary: dict = {
            "scenario": self.scenario.name,
            "sim_now": self.sim.now,
            "issued": self.issued,
            "enforced": metrics.count,
            "grant_rate": round(metrics.grant_rate(), 4),
            "timeouts": sum(p.timeouts for p in peps.values()),
            "failovers": sum(p.failovers for p in peps.values()),
            "churn_reroutes": sum(p.churn_reroutes for p in peps.values()),
            "network": self.federation.network.stats.snapshot(),
            "plane": {**self.plane.describe(), **self.plane.stats()},
            "policy_plane": {**self.policy_plane.describe(), **self.policy_plane.stats()},
            "peps": {
                name: {
                    "enforced": len(pep.enforced),
                    "timeouts": pep.timeouts,
                    "failovers": pep.failovers,
                    "churn_reroutes": pep.churn_reroutes,
                }
                for name, pep in sorted(peps.items())
            },
        }
        if metrics.count:
            latency = {
                "count": metrics.count,
                "mean": metrics.mean_latency(),
                "max": metrics.latency_max,
            }
            if len(self.outcomes) == metrics.count:
                latencies = sorted(self.access_latencies())
                latency["p50"] = percentile(latencies, 0.50)
                latency["p95"] = percentile(latencies, 0.95)
            summary["latency"] = latency
        if self.drams is not None:
            summary["drams"] = self.drams.stats()
        if self.telemetry is not None:
            summary["tracing"] = self.telemetry.tracer.stats()
        return summary
