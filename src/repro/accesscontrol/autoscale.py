"""The self-driving half of the elastic decision plane.

PR 5 made PDP shard membership runtime-elastic, but every scaling moment
was still *scripted*: a benchmark (or the harness) decided up front that
shards would be added at t=0.8.  This module closes the loop.  An
:class:`AutoscaleController` watches the signals the plane already
exposes — each shard's busy cursor
(:meth:`~repro.accesscontrol.pdp_service.PdpService.busy_seconds`) plus
the in-flight routing projection, folded together by
:meth:`~repro.accesscontrol.plane.ShardedPdpPlane.projected_backlogs` —
and drives :meth:`~repro.accesscontrol.plane.ShardedPdpPlane.add_shard` /
:meth:`~repro.accesscontrol.plane.ShardedPdpPlane.drain_shard` itself.

The control law is deliberately boring — a target-utilisation band with
hysteresis, the shape every production autoscaler converges on:

- **Signal.**  Mean projected backlog per routable shard, in seconds of
  queued work: how long a request arriving *now* expects to wait before
  its evaluation starts.
- **Band.**  Scale up above ``high_water``; scale down below
  ``low_water``; *hold* anywhere between.  The gap between the two
  thresholds is the hysteresis that keeps a load level sitting near one
  threshold from toggling membership every tick.
- **Asymmetric damping.**  Scaling up is cheap and urgent (capacity
  arrives instantly, and monitoring probes attach before the shard's
  first request), so it only waits out ``up_cooldown``.  Scaling down
  destroys state (a drained partitioned cache migrates, a re-added shard
  starts warm but not hot), so it additionally requires the signal to
  stay below ``low_water`` for ``down_samples`` consecutive ticks, and
  never overlaps an in-progress drain.
- **Bounds.**  ``min_shards`` / ``max_shards`` clamp actuation outright;
  with ``min_shards == max_shards`` the controller observes but never
  acts (``tests/test_neutrality.py`` pins the run bit-identical to an
  uncontrolled plane in exactly this configuration).

:class:`CrossPepLoadView` lives here too: the in-process route
projection assumes every PEP shares one deque — fine in one process,
wrong as a model of PEPs at different tenants.  The view deploys one
gossip node per member tenant; each PEP's dispatches are charged to its
own node, and nodes exchange full snapshots over ``load_gossip`` simnet
messages every ``gossip_interval``.  Routing then sees its *own*
dispatches fresh and its peers' through the last received snapshot —
boundedly stale, monotone per peer (sequence numbers), and
self-repairing under message loss because every round re-sends full
state.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.accesscontrol.plane import ShardedPdpPlane
from repro.common.errors import ValidationError
from repro.simnet.network import Host, Message, Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.accesscontrol.pdp_service import PdpService
    from repro.federation.federation import Federation
    from repro.simnet.simulator import Simulator


class _LoadGossipNode(Host):
    """One member tenant's picture of the shard queues.

    Holds the tenant's own recent dispatches (fresh, pruned to the view's
    horizon) and the latest snapshot received from each peer.  Snapshots
    carry monotone sequence numbers, so reordered or duplicated gossip
    never regresses the picture, and a lost round is fully repaired by
    the next one — each broadcast is the node's complete current state.
    """

    def __init__(self, network: Network, address: str, view: "CrossPepLoadView",
                 origin: str) -> None:
        super().__init__(network, address)
        self.view = view
        self.origin = origin
        self.seq = 0
        self._local: "deque[tuple[float, str, float]]" = deque()
        #: Latest accepted snapshot per peer origin: (seq, sent_at, charges).
        self._peer_snapshots: dict[str, tuple[int, float, dict[str, float]]] = {}

    # -- local picture -----------------------------------------------------------

    def note_local(self, shard_address: str, cost: float) -> None:
        self._prune()
        self._local.append((self.sim.now, shard_address, cost))

    def _prune(self) -> None:
        now = self.sim.now
        # Inclusive expiry, mirroring the plane's in-process projection:
        # horizon 0 disables local charges outright.
        while self._local and now - self._local[0][0] >= self.view.horizon:
            self._local.popleft()

    def local_charges(self) -> dict[str, float]:
        """This tenant's own in-flight charges, pruned to the horizon."""
        self._prune()
        charges: dict[str, float] = {}
        for _, address, cost in self._local:
            charges[address] = charges.get(address, 0.0) + cost
        return charges

    def merged_charges(self) -> dict[str, float]:
        """Own fresh charges plus every peer's last non-stale snapshot."""
        charges = self.local_charges()
        now = self.sim.now
        for _, sent_at, snapshot in self._peer_snapshots.values():
            if now - sent_at > self.view.stale_after:
                continue  # old in-flight work is already in the busy cursors
            for address, cost in snapshot.items():
                charges[address] = charges.get(address, 0.0) + cost
        return charges

    def peer_seqs(self) -> dict[str, int]:
        """Last accepted sequence number per peer (convergence checks)."""
        return {origin: seq for origin, (seq, _, _) in self._peer_snapshots.items()}

    # -- gossip ------------------------------------------------------------------

    def gossip_round(self) -> None:
        if not self.network.is_attached(self.address):
            # Fault plane crashed this host; its periodic timer keeps
            # firing but a detached node must not source traffic.  Peers
            # coast on the last accepted snapshot until restart.
            return
        self.seq += 1
        payload = {
            "origin": self.origin,
            "seq": self.seq,
            "at": self.sim.now,
            "charges": self.local_charges(),
        }
        for peer in self.view.peer_addresses(self.origin):
            self.send(peer, "load_gossip", payload)

    def receive(self, message: Message) -> None:
        if message.kind != "load_gossip":
            return
        payload = message.payload
        origin = payload.get("origin")
        if not origin or origin == self.origin:
            return
        seq = int(payload.get("seq", 0))
        current = self._peer_snapshots.get(origin)
        if current is not None and seq <= current[0]:
            return  # late or duplicate round: the newer snapshot stands
        self._peer_snapshots[origin] = (
            seq,
            float(payload.get("at", 0.0)),
            dict(payload.get("charges", {})),
        )


class CrossPepLoadView:
    """Gossiped cross-PEP picture of in-flight work, one node per tenant.

    Pass an instance to ``ShardedPdpPlane(queue_aware=True, load_view=...)``;
    the plane deploys it (one :class:`_LoadGossipNode` per member tenant,
    registered like any simnet host) and consults
    :meth:`projection_for` instead of its in-process route deque.

    ``horizon`` bounds how long a node's *own* dispatch stays charged
    (size it like the plane's ``ROUTING_HORIZON``: the dispatch latency).
    ``gossip_interval`` paces the snapshot exchange.  A peer snapshot is
    trusted for ``horizon + 2 × gossip_interval`` once received
    (``stale_after``) — by then the work it described has reached the busy
    cursors, and double-charging it would repel traffic from healthy
    shards.
    """

    def __init__(self, gossip_interval: float = 0.02, horizon: float = 0.05) -> None:
        if gossip_interval <= 0:
            raise ValidationError(f"gossip_interval must be positive, got {gossip_interval}")
        if horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {horizon}")
        self.gossip_interval = gossip_interval
        self.horizon = horizon
        self.stale_after = horizon + 2 * gossip_interval
        self.deployed = False
        self.records = 0
        self._nodes: dict[str, _LoadGossipNode] = {}
        self._stops: list[Callable[[], None]] = []

    # -- deployment --------------------------------------------------------------

    def deploy(self, federation: "Federation") -> "CrossPepLoadView":
        """One gossip node per member tenant, each broadcasting every interval."""
        if self.deployed:
            raise ValidationError("load view is already deployed")
        for tenant in federation.member_tenants:
            node = _LoadGossipNode(
                federation.network, tenant.address("loadview"), self, tenant.name
            )
            tenant.register_host(node.address)
            self._nodes[tenant.name] = node
        for node in self._nodes.values():
            self._stops.append(node.sim.every(
                self.gossip_interval, node.gossip_round,
                label=f"loadview-gossip:{node.origin}",
            ))
        self.deployed = True
        return self

    def stop(self) -> None:
        """Stop the gossip timers (the nodes stay attached, just silent)."""
        for stop in self._stops:
            stop()
        self._stops.clear()

    def peer_addresses(self, origin: str) -> list[str]:
        return [node.address for name, node in sorted(self._nodes.items())
                if name != origin]

    def node_for(self, origin: str) -> Optional[_LoadGossipNode]:
        return self._nodes.get(origin)

    # -- the load picture --------------------------------------------------------

    def record(self, origin: Optional[str], shard_address: str, cost: float) -> None:
        """Charge a real dispatch by tenant ``origin`` to its own node.

        A dispatch without a known origin node is dropped: the
        distributed view only knows what some PEP recorded, exactly as
        real per-process PEPs would.
        """
        node = self._nodes.get(origin) if origin else None
        if node is None:
            return
        node.note_local(shard_address, cost)
        self.records += 1

    def projection_for(self, origin: Optional[str] = None) -> dict[str, float]:
        """In-flight charges per shard, as seen from ``origin``.

        A tenant name yields that PEP's view: its own fresh dispatches
        plus peers' last gossiped snapshots (boundedly stale).  ``None``
        yields the exact union of every node's own fresh charges — the
        omniscient picture an in-process controller is entitled to.
        """
        if origin is not None:
            node = self._nodes.get(origin)
            return node.merged_charges() if node is not None else {}
        merged: dict[str, float] = {}
        for node in self._nodes.values():
            for address, cost in node.local_charges().items():
                merged[address] = merged.get(address, 0.0) + cost
        return merged


class AutoscaleController:
    """Drives elastic shard membership from the plane's own load signals.

    Bind to a deployed :class:`~repro.accesscontrol.plane.ShardedPdpPlane`
    and a simulator, then :meth:`start` the decide loop (the harness's
    ``build(autoscaler=...)`` does both).  Thresholds are in *seconds of
    queued work per routable shard* — the same unit
    :meth:`~repro.accesscontrol.plane.ShardedPdpPlane.projected_backlogs`
    reports — so ``high_water=0.05`` reads "scale up once an arriving
    request expects to wait 50 ms".  See ``docs/elasticity.md`` for the
    tuning guide and failure modes.
    """

    def __init__(
        self,
        min_shards: int = 1,
        max_shards: int = 8,
        high_water: float = 0.05,
        low_water: float = 0.005,
        decide_interval: float = 0.05,
        up_cooldown: float = 0.1,
        down_cooldown: float = 1.0,
        down_samples: int = 5,
    ) -> None:
        if min_shards < 1:
            raise ValidationError(f"min_shards must be >= 1, got {min_shards}")
        if max_shards < min_shards:
            raise ValidationError(
                f"max_shards must be >= min_shards, got {max_shards} < {min_shards}"
            )
        if low_water < 0:
            raise ValidationError(f"low_water must be >= 0, got {low_water}")
        if high_water <= low_water:
            # A band with no width has no hysteresis: one load level
            # could satisfy both thresholds and thrash membership.
            raise ValidationError(
                f"high_water must exceed low_water, got {high_water} <= {low_water}"
            )
        if decide_interval <= 0:
            raise ValidationError(f"decide_interval must be positive, got {decide_interval}")
        if up_cooldown < 0 or down_cooldown < 0:
            raise ValidationError("cooldown windows must be >= 0")
        if down_samples < 1:
            raise ValidationError(f"down_samples must be >= 1, got {down_samples}")
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.high_water = high_water
        self.low_water = low_water
        self.decide_interval = decide_interval
        self.up_cooldown = up_cooldown
        self.down_cooldown = down_cooldown
        self.down_samples = down_samples
        self.plane: Optional[ShardedPdpPlane] = None
        self.sim: Optional["Simulator"] = None
        self.decisions = 0
        self.scale_ups = 0
        self.scale_downs = 0
        #: One entry per actuation: at / action / address / signal / shards.
        self.actions: list[dict] = []
        self.last_signal: Optional[dict] = None
        self._low_streak = 0
        self._last_action: Optional[float] = None
        self._stop: Optional[Callable[[], None]] = None

    # -- lifecycle ---------------------------------------------------------------

    def bind(self, plane, sim: "Simulator") -> "AutoscaleController":
        """Attach to a deployed plane (once)."""
        if self.plane is not None:
            raise ValidationError("controller is already bound to a plane")
        if not isinstance(plane, ShardedPdpPlane):
            raise ValidationError(
                "AutoscaleController needs a ShardedPdpPlane (add_shard/drain_shard); "
                f"got {type(plane).__name__}"
            )
        self.plane = plane
        self.sim = sim
        return self

    def start(self) -> "AutoscaleController":
        """Arm the periodic decide loop on the bound simulator."""
        if self.plane is None or self.sim is None:
            raise ValidationError("bind(plane, sim) before start()")
        if self._stop is not None:
            raise ValidationError("controller is already running")
        self._stop = self.sim.every(
            self.decide_interval, self._tick, label="autoscale-decide"
        )
        return self

    @property
    def running(self) -> bool:
        return self._stop is not None

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # -- the control law ---------------------------------------------------------

    def signal(self) -> dict:
        """The utilisation signal, side-effect free (tests and benchmarks)."""
        backlogs = self.plane.projected_backlogs()
        routable = max(1, len(backlogs))
        return {
            "backlogs": backlogs,
            "mean_backlog": sum(backlogs.values()) / routable,
            "shards": len(backlogs),
            "draining": len(self.plane.draining()),
        }

    def _tick(self) -> None:
        self.decisions += 1
        sig = self.signal()
        self.last_signal = sig
        mean = sig["mean_backlog"]
        shards = sig["shards"]
        now = self.sim.now
        if mean > self.high_water:
            self._low_streak = 0
            if shards < self.max_shards and self._cooled(now, self.up_cooldown):
                service = self.plane.add_shard()
                self.scale_ups += 1
                self._record(now, "add", service.address, mean)
        elif mean < self.low_water:
            self._low_streak += 1
            if (
                shards > self.min_shards
                and self._low_streak >= self.down_samples
                and self._cooled(now, self.down_cooldown)
                # One drain at a time: stacking drains under a transient
                # lull would dump several caches' key ranges at once.
                and not self.plane.draining()
            ):
                drained = self.plane.drain_shard()
                self.scale_downs += 1
                self._low_streak = 0
                self._record(now, "drain", drained.address, mean)
        else:
            # Inside the band: hold, and restart the scale-down count —
            # "sustained low" means *consecutively* low.
            self._low_streak = 0

    def _cooled(self, now: float, window: float) -> bool:
        return self._last_action is None or now - self._last_action >= window

    def _record(self, now: float, action: str, address: str, mean: float) -> None:
        self._last_action = now
        self.actions.append({
            "at": now,
            "action": action,
            "address": address,
            "mean_backlog": mean,
            "shards": self.plane.shards,
        })

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "kind": type(self).__name__,
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "high_water": self.high_water,
            "low_water": self.low_water,
            "decide_interval": self.decide_interval,
            "up_cooldown": self.up_cooldown,
            "down_cooldown": self.down_cooldown,
            "down_samples": self.down_samples,
            "decisions": self.decisions,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "actions": list(self.actions),
        }
