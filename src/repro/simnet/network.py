"""Simulated message network.

Hosts register with the network under a unique address; sending a message
posts its delivery after the link's sampled latency.  The network supports
per-pair latency overrides, symmetric and asymmetric partitions, and per-link
fault profiles (loss, duplication, reordering jitter, added latency), which the
threat experiments and the fault-injection plane (:mod:`repro.faults`) use to
model degraded federations.

Messages are delivered by invoking ``host.receive(message)``, the one decode
path: a :class:`Host` subclass declares the kinds it takes (:attr:`Host.RECEIVES`),
and :meth:`Host.receive` decodes each message for its kind's handler, or drops
it and counts it in ``NetworkStats.malformed`` by destination and kind.

Crash safety: every ``attach`` bumps an *incarnation* counter for the
address, and a delivery only lands if the destination still runs the
incarnation that was current at send time.  A message in flight toward a
host that crashes — or crashes and restarts — before the delivery event
fires is dropped (counted in ``NetworkStats.dropped_dead``) instead of
being handed to a dead host or to a restarted incarnation with stale
state; so is anything a detached host's surviving timers try to send.

What a message costs: one :class:`Message`, sized once, one latency draw and
one uncancellable heap entry (:meth:`Simulator.post` of the bound
``_deliver(message, born)``).  While no partition or link fault is installed,
neither is looked up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, ClassVar, Optional

from repro.common.errors import NetworkError, ValidationError
from repro.common.rng import SeededRng
from repro.common.serialization import canonical_bytes
from repro.simnet.latency import ConstantLatency, LatencyModel
from repro.simnet.simulator import Simulator


#: Flat envelope overhead charged per message on top of the payload.
HEADER_BYTES = 64


@dataclass
class Message:
    """An addressed datagram.  ``payload`` must be canonically serializable."""

    src: str
    dst: str
    kind: str
    payload: Any
    #: Set by :meth:`Network.send`; a message built by hand carries none.
    msg_id: str = ""
    sent_at: float = 0.0
    #: Sideband trace context (:class:`repro.telemetry.tracing.TraceContext`).
    #: Never part of the payload: excluded from equality and from
    #: :meth:`size_bytes`, so tracing changes no wire stat or sampled latency.
    trace: Any = field(default=None, repr=False, compare=False)
    #: In-process sideband: the object ``payload`` was built from, so a receiver
    #: need not decode what never left the process.  Like ``trace`` it is outside
    #: the payload, equality and :meth:`size_bytes`.  Sound because only the
    #: caller that builds ``payload`` from the object attaches it, in that same
    #: call (:meth:`Network.multicast`); the fabric copies it only onto a message
    #: carrying that very payload object; and the object, which every receiver
    #: then shares, is frozen before it is first sent.
    decoded: Any = field(default=None, init=False, repr=False, compare=False)

    def size_bytes(self) -> int:
        """Wire size estimate — canonical encoding length plus header.

        A payload is frozen once handed to :meth:`Network.send` and sized
        once, where it enters the network: from the ``wire_size()`` of the
        object it was built from, if it travels with one, else encoded here.
        The fabric hands that integer to every later message carrying the
        same object (the rest of a :meth:`Network.multicast` fan-out, each
        relay hop).
        """
        size = getattr(self, "_size_cache", None)
        if size is None:
            size = len(canonical_bytes(self.payload)) + HEADER_BYTES
            self._size_cache = size
        return size


@dataclass
class NetworkStats:
    """Counters the benchmarks report alongside latency numbers."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    #: Subset of ``dropped``: deliveries abandoned because the destination
    #: crashed (or crashed and restarted) after the message was sent, and
    #: sends attempted by a host that is itself detached.
    dropped_dead: int = 0
    #: Extra deliveries injected by per-link duplication faults.
    duplicated: int = 0
    bytes_sent: int = 0
    #: Sends by message kind — the per-protocol traffic breakdown the
    #: harness run summaries surface.
    by_kind: dict = field(default_factory=dict)
    #: Delivered messages their host dropped because they did not decode,
    #: by ``(destination address, kind)``.
    malformed: Counter = field(default_factory=Counter)

    def snapshot(self) -> dict:
        malformed: dict = {}
        for (address, kind), count in sorted(self.malformed.items()):
            malformed.setdefault(address, {})[kind] = count
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "dropped_dead": self.dropped_dead,
            "duplicated": self.duplicated,
            "bytes_sent": self.bytes_sent,
            "by_kind": dict(sorted(self.by_kind.items())),
            "malformed": malformed,
        }


@dataclass
class LinkFault:
    """Adversarial delivery profile for one directed link.

    ``loss`` drops the message outright; ``duplicate`` schedules a second
    independent delivery of the same message (at-least-once semantics);
    ``reorder_jitter`` adds a uniform random delay in ``[0, jitter]`` so
    back-to-back messages can overtake each other; ``extra_latency`` is a
    deterministic spike added to every traversal.  Counters feed the
    fault-plane's recovery reports.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    reorder_jitter: float = 0.0
    extra_latency: float = 0.0
    dropped: int = 0
    duplicated: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"link loss must be in [0,1], got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(f"link duplicate must be in [0,1], got {self.duplicate}")
        if self.reorder_jitter < 0 or self.extra_latency < 0:
            raise ValueError("link delays must be >= 0")


class Host:
    """A network endpoint that takes the message kinds its class declares."""

    #: ``kind -> (decoder, handler)``; kinds not listed are ignored.  A decoder
    #: is a payload type (its ``from_dict`` looked up per call; a ``decoded``
    #: sideband of exactly that type is taken as is) or a function ``(host,
    #: payload)``, and raises only :class:`ValidationError`.  What it returns
    #: is handed on as ``handler(host, message, value)``.
    RECEIVES: ClassVar[dict[str, tuple[Any, Callable[..., None]]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "RECEIVES" in vars(cls) and "receive" not in vars(cls):
            # The class's own attribute, so a profiler can wrap one class's
            # deliveries by name (``bench/tracing.py`` does).
            cls.receive = Host.receive

    def __init__(self, network: "Network", address: str) -> None:
        self.network = network
        self.address = address
        #: Local clock error in seconds; the fault plane's ``clock_skew``
        #: events set this.  Only *observations* (probe timestamps) read
        #: the skewed clock — the simulator itself stays monotonic.
        self.clock_offset = 0.0
        network.attach(self)

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def local_now(self) -> float:
        """This host's possibly-skewed view of the current time."""
        return self.sim.now + self.clock_offset

    def send(
        self, dst: str, kind: str, payload: Any, msg_id: Optional[str] = None
    ) -> Optional[Message]:
        """Send a message; returns it, or None if it was dropped/partitioned.

        ``msg_id`` overrides the minted message id.  Sideband components
        (light clients and the services answering them) supply their own
        namespaced ids so their traffic does not advance the run's id
        counter — minted ids feed transaction identity, so differential
        experiments require the primary stack's id sequence to be
        byte-identical with and without observers attached.
        """
        return self.network.send(self.address, dst, kind, payload, msg_id=msg_id)

    def receive(self, message: Message) -> None:
        """Decode ``message`` for its kind's handler; drop and count it if it does not decode."""
        entry = self.RECEIVES.get(message.kind)
        if entry is None:
            return
        decode, handle = entry
        value = message.decoded
        if type(value) is not decode:
            try:
                if isinstance(decode, type):
                    value = decode.from_dict(message.payload)
                else:
                    value = decode(self, message.payload)
            except ValidationError:
                self.network.stats.malformed[self.address, message.kind] += 1
                return
        handle(self, message, value)


class Network:
    """The federation's message fabric.

    ``default_latency`` applies unless a per-pair or per-host-prefix
    override is installed with :meth:`set_latency`.  Partitions are
    symmetric and dynamic: experiments heal or create them mid-run.
    """

    def __init__(
        self, sim: Simulator, rng: SeededRng, default_latency: LatencyModel | None = None
    ) -> None:
        self.sim = sim
        self.rng = rng.fork("network")
        self.default_latency = default_latency or ConstantLatency(0.001)
        self.stats = NetworkStats()
        self._hosts: dict[str, Host] = {}
        self._latency_overrides: dict[tuple[str, str], LatencyModel] = {}
        #: Severed directed links; a symmetric partition holds both directions.
        self._blocked: set[tuple[str, str]] = set()
        self._link_faults: dict[tuple[str, str], LinkFault] = {}
        self._taps: list[Callable[[Message], None]] = []
        #: Optional :class:`repro.telemetry.tracing.Tracer`.  When set,
        #: sends stamp the active trace context onto the message and
        #: deliveries re-activate it around ``host.receive`` — the whole
        #: cross-hop propagation protocol.  Pure observation: no payload,
        #: stat or RNG effect.
        self.telemetry = None
        #: Per-address attach generation; deliveries are bound to the
        #: incarnation current at send time (see module docstring).
        self._incarnations: dict[str, int] = {}

    # -- topology management ---------------------------------------------------

    def attach(self, host: Host) -> None:
        if host.address in self._hosts:
            raise NetworkError(f"address already in use: {host.address}")
        self._hosts[host.address] = host
        self._incarnations[host.address] = self._incarnations.get(host.address, 0) + 1

    def detach(self, address: str) -> None:
        self._hosts.pop(address, None)

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def host(self, address: str) -> Optional[Host]:
        """The attached host at ``address``, or None (crashed/never attached)."""
        return self._hosts.get(address)

    def is_attached(self, address: str) -> bool:
        return address in self._hosts

    def set_latency(self, src: str, dst: str, model: LatencyModel, symmetric: bool = True) -> None:
        """Override latency for the (src, dst) pair (and reverse if symmetric)."""
        self._latency_overrides[(src, dst)] = model
        if symmetric:
            self._latency_overrides[(dst, src)] = model

    def partition(self, group_a: list[str], group_b: list[str], symmetric: bool = True) -> None:
        """Block traffic between the two host groups.

        Symmetric partitions (the default) sever both directions;
        ``symmetric=False`` blocks only group_a -> group_b, modelling the
        asymmetric failures (one-way firewall rules, half-open links) the
        fault plane scripts.
        """
        for a in group_a:
            for b in group_b:
                self._blocked.add((a, b))
                if symmetric:
                    self._blocked.add((b, a))

    def heal(self) -> None:
        """Remove all partitions (symmetric and directed)."""
        self._blocked.clear()

    def heal_partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Remove the partitions between exactly these two groups."""
        for a in group_a:
            for b in group_b:
                self._blocked.discard((a, b))
                self._blocked.discard((b, a))

    def is_partitioned(self, a: str, b: str) -> bool:
        """True if a message from ``a`` to ``b`` would be severed."""
        return (a, b) in self._blocked

    # -- per-link fault profiles ------------------------------------------------

    def set_link_fault(
        self,
        src: str,
        dst: str,
        *,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder_jitter: float = 0.0,
        extra_latency: float = 0.0,
        symmetric: bool = False,
    ) -> LinkFault:
        """Install an adversarial delivery profile on the src->dst link.

        Returns the (forward-direction) :class:`LinkFault` so callers can
        read its drop/duplicate counters afterwards.
        """
        fault = LinkFault(
            loss=loss,
            duplicate=duplicate,
            reorder_jitter=reorder_jitter,
            extra_latency=extra_latency,
        )
        fault.validate()
        self._link_faults[(src, dst)] = fault
        if symmetric:
            self._link_faults[(dst, src)] = replace(fault)
        return fault

    def clear_link_fault(self, src: str, dst: str, symmetric: bool = False) -> None:
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)

    def link_fault(self, src: str, dst: str) -> Optional[LinkFault]:
        return self._link_faults.get((src, dst))

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Install a wiretap invoked for every sent message (probes use this)."""
        self._taps.append(tap)

    # -- message transfer --------------------------------------------------------

    def _latency_for(self, src: str, dst: str) -> LatencyModel:
        return self._latency_overrides.get((src, dst), self.default_latency)

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        msg_id: Optional[str] = None,
        *,
        sized: Optional[Message] = None,
    ) -> Optional[Message]:
        """Send one message; ``sized`` lends size and sideband if it carries this very object."""
        if src not in self._hosts:
            if src not in self._incarnations:
                raise NetworkError(f"unknown source host: {src}")
            # A crashed process whose timers keep firing: a dead host talking.
            self.stats.dropped += 1
            self.stats.dropped_dead += 1
            return None
        if msg_id is None:
            msg_id = self.sim.new_id("msg")
        message = Message(src, dst, kind, payload, msg_id=msg_id, sent_at=self.sim.now)
        if sized is not None and sized.payload is payload:
            size = message._size_cache = sized.size_bytes()
            message.decoded = sized.decoded
        else:
            size = message.size_bytes()
        self.stats.sent += 1
        self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        self.stats.bytes_sent += size
        if self.telemetry is not None:
            message.trace = self.telemetry.current
        for tap in self._taps:
            tap(message)
        if dst not in self._hosts or (self._blocked and (src, dst) in self._blocked):
            self.stats.dropped += 1
            return None
        fault = self._link_faults.get((src, dst)) if self._link_faults else None
        if fault is not None and fault.loss > 0 and self.rng.random() < fault.loss:
            fault.dropped += 1
            self.stats.dropped += 1
            return None
        delay = self._transit_delay(src, dst, size, fault)
        # Bind the delivery to the destination's current incarnation: a
        # crash (detach) or crash+restart (re-attach) between now and the
        # delivery time invalidates every message already in flight.
        deliver = partial(self._deliver, message, self._incarnations[dst])
        self.sim.post(delay, deliver)
        if fault is not None and fault.duplicate > 0 and self.rng.random() < fault.duplicate:
            # At-least-once delivery: a second, independently-delayed copy
            # of the same message (same msg_id — receivers must be
            # idempotent, which the adversarial-delivery tests pin).
            fault.duplicated += 1
            self.stats.duplicated += 1
            self.sim.post(self._transit_delay(src, dst, size, fault), deliver)
        return message

    def _deliver(self, message: Message, born: int) -> None:
        dst = message.dst
        host = self._hosts.get(dst)
        if host is None or self._incarnations[dst] != born:
            self.stats.dropped += 1
            self.stats.dropped_dead += 1
            if self.telemetry is not None and message.trace is not None:
                # The trace sees the loss even though no host does.
                self.telemetry.instant(
                    "net.dropped_dead", dst, context=message.trace, attrs={"kind": message.kind}
                )
            return
        if self._blocked and (message.src, dst) in self._blocked:
            self.stats.dropped += 1
            return
        self.stats.delivered += 1
        if self.telemetry is not None and message.trace is not None:
            with self.telemetry.activate(message.trace):
                host.receive(message)
        else:
            host.receive(message)

    def _transit_delay(self, src: str, dst: str, size: int, fault: Optional[LinkFault]) -> float:
        delay = self._latency_for(src, dst).sample(self.rng, size)
        if fault is not None:
            delay += fault.extra_latency
            if fault.reorder_jitter > 0:
                delay += self.rng.uniform(0.0, fault.reorder_jitter)
        return delay

    def multicast(
        self,
        src: str,
        dsts: list[str],
        kind: str,
        payload: Any,
        relayed: Optional[Message] = None,
        decoded: Any = None,
    ) -> None:
        """Send one frozen payload to each of ``dsts``, sizing it once.

        ``relayed`` is the message it arrived in, if the sender is passing it
        on; otherwise an envelope that is never sent (and mints no id) sizes it
        and carries ``decoded``, the object the sender just built it from,
        whose ``wire_size()`` (if it has one) is the payload's encoded length.
        """
        sized = relayed
        if sized is None or sized.payload is not payload:
            sized = Message(src=src, dst="*", kind=kind, payload=payload)
            sized.decoded = decoded
            if hasattr(decoded, "wire_size"):
                sized._size_cache = decoded.wire_size() + HEADER_BYTES
        for dst in dsts:
            self.send(src, dst, kind, payload, sized=sized)

    def broadcast(self, src: str, kind: str, payload: Any, exclude: set[str] | None = None) -> int:
        """Send to every attached host except ``src`` and ``exclude``; returns count."""
        skip = {src} | (exclude or set())
        dsts = [address for address in sorted(self._hosts) if address not in skip]
        self.multicast(src, dsts, kind, payload)
        return len(dsts)
