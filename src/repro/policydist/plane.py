"""The policy distribution plane: how policy consumers reach the PRP.

The paper's federation has one logical PRP; after PR 3 sharded the
decision plane, that store was the last unreplicated singleton — every
PDP replica and the DRAMS Analyser read policy from the *same* in-process
object, so policy publishes were instantaneous and race-free, a condition
no real federation enjoys.  This module makes the choice explicit, the
same way :mod:`repro.accesscontrol.plane` did for the PDP: components are
constructed against a :class:`PolicyDistributionPlane` handle, and the
plane decides how many PRP replicas exist and how publishes reach them.

Two backends ship:

- :class:`SingleStorePlane` — one shared
  :class:`~repro.accesscontrol.prp.PolicyRetrievalPoint` handed to every
  consumer.  Deploying the default stack through it is bit-identical to
  the previous hard-wired wiring (same objects, no extra hosts, no extra
  events).
- :class:`ReplicatedPrpPlane` — each consumer owns a
  :class:`~repro.policydist.replica.PrpReplica` fed by simnet-delivered
  publish messages with configurable propagation delay/jitter, plus
  periodic anti-entropy (version-vector pull against the origin) so
  dropped publishes converge.  Version skew between replicas becomes
  *observable*: a PDP shard may evaluate under version ``k`` while the
  head is already ``k+1``, which is exactly the honest churn the
  version-stamped monitoring pipeline must tell apart from tampering.

The **authority** store is the publisher's own view: the PAP publishes
into it (so change-impact analysis always runs against the publisher's
current version, never a stale replica's) and anti-entropy treats it as
the source of truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.accesscontrol.prp import PolicyRetrievalPoint, PolicyVersion
from repro.common.errors import ValidationError
from repro.policydist.replica import PrpReplica, check_record
from repro.simnet.network import Host, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.federation import Federation


class PolicyDistributionPlane:
    """Abstract handle: who stores policy, and how publishes travel."""

    def deploy(self, federation: "Federation") -> "PolicyDistributionPlane":
        """Create the plane's stores/hosts on ``federation`` (idempotent)."""
        raise NotImplementedError

    @property
    def authority(self) -> PolicyRetrievalPoint:
        """The publisher-side store (the PAP binds here)."""
        raise NotImplementedError

    def retrieval_point_for(self, consumer: str) -> PolicyRetrievalPoint:
        """The PRP handle ``consumer`` (a PDP shard, the Analyser) reads."""
        raise NotImplementedError

    def replicas(self) -> dict[str, PolicyRetrievalPoint]:
        """Consumer name → store, for inspection (may alias ``authority``)."""
        raise NotImplementedError

    def converged(self) -> bool:
        """True when every consumer's head matches the authority head."""
        head = self.authority.version_count()
        fingerprint = self.authority.current().fingerprint if head else ""
        for store in self.replicas().values():
            if store.version_count() != head:
                return False
            if head and store.current().fingerprint != fingerprint:
                return False
        return True

    def describe(self) -> dict:
        return {"kind": type(self).__name__, "replicas": len(self.replicas())}

    def stats(self) -> dict:
        return {"versions": self.authority.version_count()}

    def start(self) -> None:
        """(Re-)arm periodic work (anti-entropy timers); no-op if running."""

    def stop(self) -> None:
        """Cancel periodic work (anti-entropy timers)."""


class SingleStorePlane(PolicyDistributionPlane):
    """Today's topology: one shared store, every consumer aliases it."""

    def __init__(self, store: Optional[PolicyRetrievalPoint] = None) -> None:
        self._store = store if store is not None else PolicyRetrievalPoint()
        self._consumers: list[str] = []

    def deploy(self, federation: "Federation") -> "SingleStorePlane":
        return self

    @property
    def authority(self) -> PolicyRetrievalPoint:
        return self._store

    def retrieval_point_for(self, consumer: str) -> PolicyRetrievalPoint:
        if consumer not in self._consumers:
            self._consumers.append(consumer)
        return self._store

    def replicas(self) -> dict[str, PolicyRetrievalPoint]:
        return {consumer: self._store for consumer in self._consumers}

    def describe(self) -> dict:
        summary = super().describe()
        summary["consumers"] = list(self._consumers)
        return summary


class _PrpOriginHost(Host):
    """The authority's network face: fans publishes out, serves pulls."""

    def __init__(self, plane: "ReplicatedPrpPlane", address: str) -> None:
        super().__init__(plane._federation.network, address)
        self.plane = plane
        self.pulls_served = 0
        self.sync_records_sent = 0

    def _decode_pull(self, payload: Any) -> int:
        """The versions the puller holds of this origin's history."""
        vector = payload.get("vector", {}) if isinstance(payload, dict) else None
        have = vector.get(self.address, 0) if isinstance(vector, dict) else None
        if type(have) is not int or have < 0:
            raise ValidationError("prp_pull needs a non-negative integer for this origin")
        return have

    def _handle_pull(self, message: Message, have: int) -> None:
        missing = self.plane.authority.history()[have:]
        if not missing:
            return
        self.pulls_served += 1
        self.sync_records_sent += len(missing)
        self.send(
            message.src,
            "prp_sync",
            {"records": [version.to_record() for version in missing]},
        )

    RECEIVES = {"prp_pull": (_decode_pull, _handle_pull)}


class _PrpReplicaHost(Host):
    """One replica's network face: applies publishes and sync batches.

    Every record is decoded before any is applied; a record that fails its
    fingerprint check drops the rest of its batch, and the message is
    counted malformed like one that does not decode."""

    def __init__(self, plane: "ReplicatedPrpPlane", address: str, replica: PrpReplica) -> None:
        super().__init__(plane._federation.network, address)
        self.plane = plane
        self.replica = replica
        #: Fault-plane crash state: while crashed the host is off the
        #: network and its anti-entropy timer (which keeps firing) no-ops.
        self.crashed = False

    def _decode_sync(self, payload: Any) -> list:
        """Every record, each well formed (:func:`check_record`); none is applied yet."""
        records = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(records, list):
            raise ValidationError("policy records are not a list")
        for record in records:
            check_record(record)
        return records

    def _decode_publish(self, payload: Any) -> list:
        records = [payload.get("record")] if isinstance(payload, dict) else None
        return self._decode_sync({"records": records})

    def _handle_records(self, message: Message, records: list) -> None:
        try:
            for record in records:
                self.replica.apply_record(record)
        except ValidationError:
            self.network.stats.malformed[self.address, message.kind] += 1
            return
        tracer = self.network.telemetry
        if tracer is not None:
            # Policy propagation markers on the replica's own timeline —
            # how churn windows line up with decision traces.
            tracer.instant("prp.apply", self.address, category="policy",
                           attrs={"kind": message.kind,
                                  "versions": self.replica.version_count()})

    RECEIVES = {
        "prp_publish": (_decode_publish, _handle_records),
        "prp_sync": (_decode_sync, _handle_records),
    }

    def pull(self) -> None:
        """Anti-entropy: ask the origin for everything past our vector."""
        if self.crashed:
            return
        self.send(self.plane.origin_address, "prp_pull", {"vector": self.replica.version_vector()})


class ReplicatedPrpPlane(PolicyDistributionPlane):
    """One PRP replica per consumer, converging on the authority store.

    ``propagation_delay`` (+ uniform ``propagation_jitter``) models how
    long a publish takes to reach each replica, sampled independently per
    replica so deliveries reorder.  ``anti_entropy_interval`` is the
    version-vector pull period; ``0`` disables pulls, leaving convergence
    to the direct fan-out alone.

    Replicas bootstrap with a synchronous snapshot of the authority's
    history at provisioning time (a new replica pulls the full store
    before serving), so delay and jitter shape *subsequent* publishes —
    the mid-traffic churn the E12 experiment measures.
    """

    def __init__(
        self,
        propagation_delay: float = 0.05,
        propagation_jitter: float = 0.02,
        anti_entropy_interval: float = 1.0,
    ) -> None:
        if propagation_delay < 0 or propagation_jitter < 0:
            raise ValidationError("propagation delay/jitter must be >= 0")
        if anti_entropy_interval < 0:
            raise ValidationError("anti_entropy_interval must be >= 0 (0 disables)")
        self.propagation_delay = propagation_delay
        self.propagation_jitter = propagation_jitter
        self.anti_entropy_interval = anti_entropy_interval
        self.publishes_sent = 0
        self._federation: Optional["Federation"] = None
        self._authority: Optional[PolicyRetrievalPoint] = None
        self._origin: Optional[_PrpOriginHost] = None
        self._hosts: dict[str, _PrpReplicaHost] = {}
        self._stoppers: list = []
        self._rng = None
        #: Anti-entropy timers run from deployment; ``stop()``/``start()``
        #: toggle them (DramsSystem wires both into its own lifecycle).
        self._running = True

    # -- deployment ---------------------------------------------------------------

    def deploy(self, federation: "Federation") -> "ReplicatedPrpPlane":
        if self._federation is not None:
            if self._federation is not federation:
                raise ValidationError("ReplicatedPrpPlane is already deployed on another federation")
            return self
        self._federation = federation
        self._rng = federation.rng.fork("policydist")
        self._authority = PolicyRetrievalPoint()
        infra = federation.infrastructure_tenant
        self._origin = _PrpOriginHost(self, infra.address("prp"))
        infra.register_host(self._origin.address)
        self._authority.on_publish(self._fan_out)
        return self

    def _require_deployed(self) -> "Federation":
        if self._federation is None:
            raise ValidationError(
                "ReplicatedPrpPlane is not deployed; call deploy(federation) first"
            )
        return self._federation

    @property
    def authority(self) -> PolicyRetrievalPoint:
        self._require_deployed()
        return self._authority

    @property
    def origin_address(self) -> str:
        self._require_deployed()
        return self._origin.address

    def retrieval_point_for(self, consumer: str) -> PolicyRetrievalPoint:
        federation = self._require_deployed()
        host = self._hosts.get(consumer)
        if host is not None:
            return host.replica
        infra = federation.infrastructure_tenant
        replica = PrpReplica(origin_id=self._origin.address, consumer=consumer)
        host = _PrpReplicaHost(self, infra.address(f"prp-{consumer}"), replica)
        infra.register_host(host.address)
        self._hosts[consumer] = host
        # Provisioning snapshot: a fresh replica syncs the full history
        # before it starts serving its consumer.
        for version in self._authority.history():
            replica.apply_record(version.to_record())
        if self._running:
            self._arm_anti_entropy(consumer, host)
        return replica

    def _arm_anti_entropy(self, consumer: str, host: "_PrpReplicaHost") -> None:
        if self.anti_entropy_interval <= 0:
            return
        rng = self._rng
        self._stoppers.append(
            self._federation.sim.every(
                self.anti_entropy_interval,
                host.pull,
                jitter=lambda: rng.uniform(0, self.anti_entropy_interval * 0.1),
            )
        )

    def consumer_at(self, address: str) -> Optional[str]:
        """The consumer whose replica host sits at ``address``, if any."""
        for consumer, host in self._hosts.items():
            if host.address == address:
                return consumer
        return None

    def replica_addresses(self) -> list[str]:
        """Replica host addresses (attached or crashed), sorted."""
        return sorted(host.address for host in self._hosts.values())

    # -- crash / restart (fault plane) ---------------------------------------------

    def crash_replica(self, consumer: str) -> PrpReplica:
        """Abruptly kill one replica's host process.

        The replica drops off the network (publishes and sync batches in
        flight toward it die at the fabric) and loses its in-memory
        staging buffer for out-of-order records; the *applied* version
        history is the consumer's durable store and survives, which is
        exactly the re-bootstrap contract anti-entropy was built for.
        """
        federation = self._require_deployed()
        host = self._hosts.get(consumer)
        if host is None:
            raise ValidationError(f"no PRP replica for consumer {consumer!r}")
        if host.crashed:
            return host.replica
        host.crashed = True
        host.replica.lose_staged()
        federation.network.detach(host.address)
        return host.replica

    def restart_replica(self, consumer: str) -> PrpReplica:
        """Bring a crashed replica back and converge it immediately.

        Re-attaches under a fresh incarnation and issues one eager
        version-vector pull, so recovery does not wait out a full
        anti-entropy interval; the origin answers with exactly the suffix
        published during the outage.
        """
        federation = self._require_deployed()
        host = self._hosts.get(consumer)
        if host is None:
            raise ValidationError(f"no PRP replica for consumer {consumer!r}")
        if not host.crashed:
            return host.replica
        federation.network.attach(host)
        host.crashed = False
        host.pull()
        return host.replica

    # -- publish propagation --------------------------------------------------------

    def _fan_out(self, version: PolicyVersion) -> None:
        record = version.to_record()
        sim = self._federation.sim
        for consumer in sorted(self._hosts):
            host = self._hosts[consumer]
            delay = self.propagation_delay + self._rng.uniform(0, self.propagation_jitter)
            self.publishes_sent += 1
            sim.post(
                delay,
                lambda host=host, record=record: self._origin.send(
                    host.address, "prp_publish", {"record": record}
                ),
            )

    # -- inspection ------------------------------------------------------------------

    def replicas(self) -> dict[str, PolicyRetrievalPoint]:
        return {consumer: host.replica for consumer, host in self._hosts.items()}

    def describe(self) -> dict:
        summary = super().describe()
        summary.update(
            {
                "propagation_delay": self.propagation_delay,
                "propagation_jitter": self.propagation_jitter,
                "anti_entropy_interval": self.anti_entropy_interval,
                "consumers": sorted(self._hosts),
            }
        )
        return summary

    def stats(self) -> dict:
        return {
            "versions": self.authority.version_count(),
            "publishes_sent": self.publishes_sent,
            "pulls_served": self._origin.pulls_served,
            "sync_records_sent": self._origin.sync_records_sent,
            "replicas": {
                consumer: host.replica.stats()
                for consumer, host in sorted(self._hosts.items())
            },
        }

    def start(self) -> None:
        """Re-arm anti-entropy for every replica after a :meth:`stop`."""
        if self._running:
            return
        self._running = True
        for consumer in sorted(self._hosts):
            self._arm_anti_entropy(consumer, self._hosts[consumer])

    def stop(self) -> None:
        self._running = False
        for stopper in self._stoppers:
            stopper()
        self._stoppers.clear()
