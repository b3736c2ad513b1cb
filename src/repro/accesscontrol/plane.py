"""The decision plane: how PEPs reach the federation's policy evaluators.

The paper deploys the PDP as a single logical evaluator in the
infrastructure tenant.  That is an architectural choice, not a law of the
system — and after the PDP and monitoring fast paths, it is the remaining
throughput ceiling.  This module turns the choice into an explicit API:
PEPs are constructed with a :class:`ShardedPdpPlane` handle instead of a
raw PDP address, and the plane decides how many :class:`PdpService` replicas
exist *at any moment*, where each request is routed, and in what order
the PEP fails over when a shard does not answer.

There is one implementation, under two names:

- :class:`ShardedPdpPlane` — N ≥ 1 replicas in the infrastructure tenant
  behind consistent hashing on the *decision-cache key* (policy
  fingerprint + footprint-projected request attributes, see
  :mod:`repro.accesscontrol.decision_cache`).  Keying the ring on the
  cache key gives cache affinity for free: every request that could share
  a cached decision lands on the same shard.  The plane builds one
  :class:`DecisionCache` and hands it to every replica it deploys or adds,
  so the cache lives outside any one process: a shard crash never touches
  it, and it flushes once on every PRP publish (``DecisionCache.bind`` is
  idempotent per PRP).  The retired per-shard (``partitioned``) caches and
  their warm-up survive as a spec in ``docs/elasticity.md`` §2.
- :class:`SinglePdpPlane` — the one-shard pool whose first replica keeps
  the paper's conventional ``pdp@infrastructure`` address.  Deploying the
  default stack through it is bit-identical to the previous hard-wired
  topology (same addresses, same construction order, same event
  sequence); N = 1 is otherwise not a special case — it grows, drains,
  crashes and restarts like any pool.

Shard membership is **elastic**: :meth:`ShardedPdpPlane.add_shard` grows
the pool at runtime and :meth:`ShardedPdpPlane.drain_shard` retires a
replica gracefully — the drained shard leaves the hash ring immediately
(its key range re-homes to the ring successors, which read the same
cache), finishes its in-flight evaluations, and is only then removed from
the network.  Monitoring systems subscribe to
membership events (:meth:`ShardedPdpPlane.on_membership`) so probes attach
to a new shard before it serves its first request and detach from a
drained shard only after its last reply — coverage never gaps.

Routing is ring order and nothing else.  The retired queue-aware
re-sort (route around a shard with a long busy cursor) survives as a
spec with its last measured answers in ``docs/elasticity.md`` §3.

Membership changes are scripted (the harness's ``add_pdp_shard`` /
``drain_pdp_shard``, the fault plane's crash and restart).
``docs/elasticity.md`` covers them and keeps the retired self-driving
controller as a spec.

Monitoring coverage follows the plane: DRAMS and the centralized baseline
attach probes to *every* replica (:func:`repro.drams.probe.attach_plane_probes`),
and track membership changes live, so elasticity never opens an
unobserved decision path.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.accesscontrol.decision_cache import DecisionCache
from repro.accesscontrol.messages import AccessRequest
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.prp import PolicyRetrievalPoint, PolicyVersion
from repro.common.errors import ValidationError
from repro.common.ids import short_hash
from repro.xacml.index import attribute_footprint
from repro.xacml.parser import policy_from_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.federation.federation import Federation


#: Membership listener signature: ``listener(event, service)`` with
#: ``event`` one of ``"added"`` (routable, probe now), ``"draining"``
#: (left the ring, still finishing in-flight work), ``"removed"``
#: (quiescent and off the network, probe may detach), ``"crashed"``
#: (abruptly off the network with in-flight work lost — the probe died
#: with the process) or ``"restarted"`` (back up at the same address
#: under a fresh incarnation, probe re-attach before first request).
MembershipListener = Callable[[str, PdpService], None]


class ShardedPdpPlane:
    """Evaluator replicas behind consistent hashing, elastic at runtime.

    The handle PEPs use to reach policy evaluators.  A plane owns its
    :class:`PdpService` replicas (created by :meth:`deploy`) and answers
    one routing question per request: :meth:`endpoints` — which shard
    addresses to try, in failover order.  Membership changes are
    announced through :meth:`on_membership`.

    ``shards`` is the *initial* membership; :meth:`add_shard` and
    :meth:`drain_shard` change it live (``self.shards`` tracks the
    current routable count).  Every replica shares the plane's one
    :class:`DecisionCache` (``service_kwargs["decision_cache"]`` supplies
    it, else the plane builds it).  ``service_kwargs`` are forwarded to
    every :class:`PdpService` constructor (processing delays,
    serialization).

    ``drain_grace`` is the minimum simulated time a draining shard lingers
    before removal (covering requests already on the wire toward it);
    quiescence additionally requires zero pending evaluations, checked
    every ``DRAIN_POLL_INTERVAL`` seconds.
    """

    #: Footprint memo bound — same flip-flop-churn rationale as
    #: ``PdpService.PDP_CACHE_SIZE``: policy publications are unbounded
    #: over a federation's lifetime, distinct *concurrent* versions are not.
    FOOTPRINT_MEMO_SIZE = 16

    #: Ring points per shard; spreads load within a few percent for small
    #: shard counts.
    VIRTUAL_NODES = 32
    #: Seconds between quiescence checks of a draining shard.
    DRAIN_POLL_INTERVAL = 0.25

    def __init__(
        self,
        shards: int = 2,
        service_kwargs: Optional[dict] = None,
        drain_grace: float = 1.0,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if drain_grace < 0:
            raise ValidationError(f"drain_grace must be >= 0, got {drain_grace}")
        self.shards = shards
        self.service_kwargs = dict(service_kwargs or {})
        self.drain_grace = drain_grace
        self.rebalances = 0
        #: Deployed evaluator services, primary first.  Monitoring systems
        #: attach probes to every entry; ``services[0]`` is the conventional
        #: compromise target for the threat experiments.
        self._services: list[PdpService] = []
        self._membership_listeners: list[MembershipListener] = []
        #: Optional :class:`repro.telemetry.tracing.Tracer`; when set,
        #: membership changes leave instant markers on a ``lifecycle``
        #: trace so elasticity shows up on the same timeline as requests.
        self.telemetry = None
        self._prp: Optional[PolicyRetrievalPoint] = None
        self._footprints: "OrderedDict[str, frozenset]" = OrderedDict()
        self._ring: list[tuple[int, int]] = []
        self._ring_points: list[int] = []
        self._federation: Optional["Federation"] = None
        self._policy_plane_handle = None
        self._next_index = shards
        self._draining: dict[str, PdpService] = {}
        #: Shards currently crashed (fault plane).  They stay in
        #: ``_services`` — and on the ring — because a real crash is not
        #: announced to the router; failure detection happens at the PEP.
        self._crashed: dict[str, PdpService] = {}

    @property
    def services(self) -> list[PdpService]:
        return list(self._services)

    # -- deployment --------------------------------------------------------------

    def deploy(self, federation: "Federation", policy_plane) -> "ShardedPdpPlane":
        """Create the plane's evaluators in the infrastructure tenant.

        Each evaluator reads from the replica that ``policy_plane`` (a
        :class:`~repro.policydist.plane.PolicyDistributionPlane`) assigns
        it (``pdp``, ``pdp-0``, … as consumer names).
        """
        # Imported here: repro.policydist imports this package's prp module.
        from repro.policydist.plane import PolicyDistributionPlane

        if self._services:
            raise ValidationError(f"{type(self).__name__} is already deployed")
        if not isinstance(policy_plane, PolicyDistributionPlane):
            raise ValidationError(
                f"expected a PolicyDistributionPlane, got {type(policy_plane).__name__}"
            )
        policy_plane.deploy(federation)
        self._federation = federation
        self._policy_plane_handle = policy_plane
        # One cache for every shard; an *empty* supplied one is kept.
        if self.service_kwargs.get("decision_cache") is None:
            self.service_kwargs["decision_cache"] = DecisionCache()
        services = [self._build_service(index) for index in range(self.shards)]
        # Route on the authority store's head: affinity only needs the key
        # to be consistent across requests, and the publisher's view is the
        # one stable head while replicas converge.
        self._adopt(services, policy_plane.authority)
        return self

    def _shard_name(self, index: int) -> str:
        """Host and policy-consumer name of shard ``index``."""
        return f"pdp-{index}"

    def _build_service(self, index: int) -> PdpService:
        """Construct and register shard ``index``."""
        name = self._shard_name(index)
        federation = self._federation
        infra = federation.infrastructure_tenant
        # Each shard reads policy from its own assigned replica; under
        # a SingleStorePlane these all alias one store (the pre-plane
        # wiring), under a ReplicatedPrpPlane they skew independently.
        service = PdpService(
            federation.network,
            infra.address(name),
            self._policy_plane_handle.retrieval_point_for(name),
            **self.service_kwargs,
        )
        infra.register_host(service.address)
        return service

    @staticmethod
    def over(
        services: Sequence[PdpService],
        prp: Optional[PolicyRetrievalPoint] = None,
    ) -> "ShardedPdpPlane":
        """Wrap already-deployed evaluators (manual wiring and tests).

        ``service_kwargs`` is deliberately not accepted — the adopted
        services were built by the caller, caches included, so the plane
        cannot change them.  :meth:`add_shard` is not available (the
        plane cannot build services), but :meth:`drain_shard` works on
        adopted simulator-bound services.  Pass ``prp`` whenever routing
        affinity matters: without it the ring keys on the *raw* request
        content, and per-request attributes (``time-of-day`` in
        particular) fragment the key space.
        """
        if not services:
            raise ValidationError("a sharded plane needs at least one service")
        plane = ShardedPdpPlane(shards=len(services))
        plane._adopt(list(services), prp)
        return plane

    def _adopt(self, services: list[PdpService], prp: Optional[PolicyRetrievalPoint]) -> None:
        self._services = services
        self._prp = prp
        self._rebuild_ring()

    def _rebuild_ring(self) -> None:
        """Recompute the consistent-hash ring over the routable services.

        Vnode points key on shard *addresses*, so adding or draining a
        shard moves only the key ranges adjacent to its vnodes — the
        surviving shards keep their positions (and their cache affinity).
        """
        ring = []
        for index, service in enumerate(self._services):
            for vnode in range(self.VIRTUAL_NODES):
                point = int(short_hash(f"{service.address}#vnode-{vnode}", 16), 16)
                ring.append((point, index))
        ring.sort()
        self._ring = ring
        self._ring_points = [point for point, _ in ring]
        self.shards = len(self._services)

    # -- elastic membership ------------------------------------------------------

    def on_membership(self, listener: MembershipListener) -> None:
        """Subscribe to shard membership changes (see ``MembershipListener``).

        Monitoring orchestrators use this to attach a probe to a shard
        added at runtime before it serves its first request, and to
        detach a drained shard's probe only once it is quiescent.
        """
        self._membership_listeners.append(listener)

    def _notify_membership(self, event: str, service: PdpService) -> None:
        if self.telemetry is not None:
            self.telemetry.instant(
                f"plane.{event}",
                service.address,
                context=None,
                trace_id="lifecycle",
                category="membership",
            )
        for listener in list(self._membership_listeners):
            listener(event, service)

    def add_shard(self) -> PdpService:
        """Grow the pool by one replica, live.

        The new shard joins the hash ring immediately (only the key
        ranges adjacent to its vnodes re-home to it), reads policy from
        its own assigned replica, shares the plane's decision cache, and
        is announced to membership listeners
        *before* this method returns — so monitoring probes attach before
        the shard can serve a single request.
        """
        if self._federation is None:
            raise ValidationError(
                "add_shard needs a deployed plane (ShardedPdpPlane.over wraps "
                "externally built services; build and adopt a new one instead)"
            )
        index = self._next_index
        self._next_index += 1
        infra = self._federation.infrastructure_tenant
        known = set(infra.host_addresses)
        service = self._build_service(index)
        self._services.append(service)
        self._rebuild_ring()
        self.rebalances += 1
        # New hosts, new links: the shard itself plus any host the policy
        # plane provisioned for its replica get their LAN latencies wired
        # before any request routes here — O(hosts) per new host, not a
        # full re-finalize.
        for address in infra.host_addresses:
            if address not in known:
                self._federation.wire_host(address)
        self._notify_membership("added", service)
        return service

    def drain_shard(self, address: Optional[str] = None) -> PdpService:
        """Retire one replica gracefully, live.

        The shard leaves the hash ring at once — new requests re-home to
        its ring successors — but keeps its network face until it is *quiescent*:
        zero pending evaluations and at least ``drain_grace`` simulated
        seconds elapsed (covering requests already on the wire).  Only
        then does it detach from the network and fire the ``"removed"``
        membership event that lets monitoring probes let go.

        ``address`` picks the replica (default: the last in deployment
        order).  The last routable shard cannot be drained.
        """
        if len(self._services) <= 1:
            raise ValidationError("cannot drain the last routable shard")
        if address is None:
            # Never auto-pick a crashed shard: draining needs a live
            # process to quiesce (and scaling in during an outage should
            # retire a healthy replica).
            service = next(
                (s for s in reversed(self._services) if s.address not in self._crashed),
                None,
            )
            if service is None:
                raise ValidationError("no live shard to drain")
        else:
            service = next((s for s in self._services if s.address == address), None)
            if service is None:
                raise ValidationError(f"no routable shard at {address!r}")
            if service.address in self._crashed:
                raise ValidationError(
                    f"cannot drain crashed shard {address!r}; restart it first")
        sim = getattr(service, "sim", None)
        if sim is None:
            raise ValidationError(f"shard {service.address!r} has no simulator binding to drain on")
        self._services.remove(service)
        self._draining[service.address] = service
        self._rebuild_ring()
        self.rebalances += 1
        self._notify_membership("draining", service)
        started = sim.now

        def check_quiescent() -> None:
            if (
                getattr(service, "pending_evaluations", 0) == 0
                and sim.now >= started + self.drain_grace
            ):
                self._draining.pop(service.address, None)
                # Off the network: a pathological straggler request is
                # dropped at the fabric and the PEP re-plans onto a live
                # shard — never served unobserved after the probe detaches.
                service.network.detach(service.address)
                self._notify_membership("removed", service)
                return
            poll()

        def poll() -> None:
            sim.post(self.DRAIN_POLL_INTERVAL, check_quiescent)

        poll()
        return service

    def draining(self) -> list[PdpService]:
        """Shards that left the ring but are still finishing work."""
        return list(self._draining.values())

    # -- crash / restart (fault plane) -------------------------------------------

    def crash_shard(self, address: Optional[str] = None) -> PdpService:
        """Abruptly kill one replica (fault injection), live.

        Unlike :meth:`drain_shard` this is *not* a membership operation:
        the shard stays in the ring, because a real crash is never
        announced to the router — failure detection lives at the PEP,
        whose per-attempt timer expires against the silent shard and
        fails the request over (counted as ``failovers``, a fault, not
        ``churn_reroutes``).  The process loses its in-flight
        evaluations and its busy cursor; the plane's decision cache lives
        outside the process and survives.  Fires the ``"crashed"`` membership
        event so monitoring probes detach (the probe dies with the
        component it runs in).
        """
        if address is None:
            service = self._services[-1]
        else:
            service = next((s for s in self._services if s.address == address), None)
            if service is None:
                raise ValidationError(f"no routable shard at {address!r}")
        if service.address in self._crashed:
            return service
        service.crash()
        self._crashed[service.address] = service
        self._notify_membership("crashed", service)
        return service

    def restart_shard(self, address: str) -> PdpService:
        """Bring a crashed replica back, live.

        The shard re-attaches under a fresh network incarnation (messages
        sent to the dead one never arrive) and reads the plane's cache as
        it did before the crash.  Fires ``"restarted"`` before returning,
        so a monitoring probe is attached before the first post-restart
        request can be served.
        """
        service = self._crashed.pop(address, None)
        if service is None:
            raise ValidationError(f"no crashed shard at {address!r}")
        service.restart()
        self._notify_membership("restarted", service)
        return service

    def crashed(self) -> list[PdpService]:
        """Shards currently crashed (still on the ring, off the network)."""
        return list(self._crashed.values())

    @staticmethod
    def _key_point(key: str) -> int:
        return int(short_hash(key, 16), 16)

    # -- routing -----------------------------------------------------------------

    def route_key(self, request: AccessRequest) -> str:
        """The decision-cache key for ``request`` under the active policy.

        Routing on exactly the cache key means requests that could share a
        cached decision always land on the same shard.  Before any policy
        is published the raw request attributes key the ring instead.
        """
        if self._prp is not None and self._prp.version_count() > 0:
            version = self._prp.current()
            footprint = self._footprint_for(version)
            return DecisionCache.request_key(version.fingerprint, request.content, footprint)
        return DecisionCache.request_key("unversioned", request.content, None)

    def _footprint_for(self, version: PolicyVersion) -> frozenset:
        footprint = self._footprints.get(version.fingerprint)
        if footprint is not None:
            self._footprints.move_to_end(version.fingerprint)
            return footprint
        # Prefer the primary shard's compiled footprint: it is the very
        # projection the shards key their caches with, and reusing it
        # avoids compiling each policy version a second time on the
        # routing path.  Falls back to a local compile for planes
        # adopted over stub services (tests) or a PRP the services do not
        # share.
        primary = self._services[0] if self._services else None
        if isinstance(primary, PdpService) and primary.prp.version_count() > 0:
            compiled_version, compiled_footprint = primary.current_footprint()
            if compiled_version.fingerprint == version.fingerprint:
                footprint = compiled_footprint
        if footprint is None:
            footprint = attribute_footprint(policy_from_dict(version.document))
        self._footprints[version.fingerprint] = footprint
        while len(self._footprints) > self.FOOTPRINT_MEMO_SIZE:
            self._footprints.popitem(last=False)
        return footprint

    def endpoints(self, request: AccessRequest) -> tuple[str, ...]:
        """Shard addresses for ``request``, primary first, failover order.

        Ring order gives cache affinity, and failover eventually tries
        every routable shard.  PEPs re-query this on every failover, so a
        drained shard drops out of the order without the PEP holding
        stale state.
        """
        if not self._services:
            raise ValidationError("decision plane is not deployed")
        if len(self._services) == 1:
            return (self._services[0].address,)
        point = self._key_point(self.route_key(request))
        start = bisect_right(self._ring_points, point)
        order: list[str] = []
        seen: set[int] = set()
        total = len(self._ring)
        for offset in range(total):
            _, shard = self._ring[(start + offset) % total]
            if shard in seen:
                continue
            seen.add(shard)
            order.append(self._services[shard].address)
            if len(order) == len(self._services):
                break
        return tuple(order)

    def caches(self) -> list[DecisionCache]:
        """The distinct decision caches behind the plane (for inspection)."""
        seen: list[DecisionCache] = []
        for service in self._services:
            cache = service.decision_cache
            if cache is not None and all(cache is not other for other in seen):
                seen.append(cache)
        return seen

    def describe(self) -> dict:
        """Topology summary (benchmarks and the Figure 1 walkthrough)."""
        return {
            "kind": type(self).__name__,
            "shards": len(self._services),
            "addresses": [service.address for service in self._services],
            "draining": sorted(self._draining),
            "rebalances": self.rebalances,
        }

    def stats(self) -> dict:
        """Per-shard service counters plus aggregate cache stats."""
        return {
            "requests_served": {
                service.address: service.requests_served for service in self._services
            },
            "caches": [cache.stats() for cache in self.caches()],
            "draining": {
                address: service.requests_served
                for address, service in sorted(self._draining.items())
            },
            "rebalances": self.rebalances,
        }


class SinglePdpPlane(ShardedPdpPlane):
    """The paper's topology: one evaluator at ``pdp@infrastructure``.

    A one-shard :class:`ShardedPdpPlane` in everything but the historical
    name of its first shard; shards added later are ``pdp-1``, ``pdp-2``, ….
    """

    def __init__(self, service_kwargs: Optional[dict] = None) -> None:
        super().__init__(shards=1, service_kwargs=service_kwargs)

    def _shard_name(self, index: int) -> str:
        return "pdp" if index == 0 else super()._shard_name(index)
