"""The ChaosController: executes a FaultPlan against a live stack.

The controller binds a validated :class:`~repro.faults.plan.FaultPlan` to
the simulator and schedules one application event per entry (plus one
reversal event per ``until``).  Target strings resolve at *fire* time, so
``fnmatch`` patterns like ``"pdp-*@*"`` pick up shards added after the
plan was written; crash/restart targets are mapped to component-specific
semantics:

- a decision-plane shard address (any shard, the default stack's
  ``pdp@infrastructure`` included) goes through
  :meth:`~repro.accesscontrol.plane.ShardedPdpPlane.crash_shard` /
  ``restart_shard`` (in-flight loss, the plane's shared decision cache
  untouched, ``"crashed"``/``"restarted"`` membership events that drive
  the DRAMS probes);
- a PRP replica host goes through the policy plane's ``crash_replica`` /
  ``restart_replica`` (staging loss, eager anti-entropy re-bootstrap);
- a blockchain node address calls ``node.crash()`` / ``node.restart()``
  (mining stops, mempool journals, head-sync rejoin);
- anything else is treated as a plain host: detached (whatever its
  timers still send is dropped and counted ``dropped_dead``), and
  re-attached on restart under a fresh network incarnation.

Every restart arms the matching :class:`RecoveryRecorder` watch, so a run
finishes with time-to-recover numbers per component without the caller
instrumenting anything.  An **empty plan is a strict no-op**: nothing is
scheduled, no RNG is drawn — ``tests/test_neutrality.py`` pins that arming an
empty controller is bit-identical to no controller.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Optional

from repro.common.errors import ValidationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import RecoveryRecorder
from repro.simnet.network import Host, Network
from repro.simnet.simulator import Simulator

_PATTERN_CHARS = set("*?[")


class ChaosController:
    """Schedules and applies one FaultPlan; inspect ``recorder`` after."""

    def __init__(self, plan: FaultPlan, *, sim: Simulator, network: Network,
                 plane=None, policy_plane=None, nodes=None,
                 recorder: Optional[RecoveryRecorder] = None) -> None:
        if not isinstance(plan, FaultPlan):
            raise ValidationError(
                f"ChaosController needs a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.sim = sim
        self.network = network
        self.plane = plane
        self.policy_plane = policy_plane
        #: Blockchain nodes by address (crash targets resolve here even
        #: while the node is off the network).
        self.nodes = dict(nodes or {})
        self.recorder = recorder if recorder is not None else RecoveryRecorder(sim)
        #: Log of applied events: {at, kind, targets}.
        self.applied: list[dict] = []
        self._armed = False
        #: Generic hosts we detached, kept for re-attach on restart.
        self._crashed_hosts: dict[str, Host] = {}

    @classmethod
    def for_stack(cls, stack, plan: FaultPlan) -> "ChaosController":
        """Bind to a :class:`~repro.harness.MonitoredFederation`."""
        nodes = {}
        drams = getattr(stack, "drams", None)
        if drams is not None:
            nodes = {node.address: node for node in drams.nodes.values()}
        controller = cls(
            plan,
            sim=stack.sim,
            network=stack.federation.network,
            plane=stack.plane,
            policy_plane=stack.policy_plane,
            nodes=nodes,
        )
        controller.recorder.bind_peps(stack.peps.values())
        return controller

    # -- arming --------------------------------------------------------------------

    def arm(self) -> "ChaosController":
        """Schedule every plan entry onto the simulator (idempotent)."""
        if self._armed:
            return self
        self._armed = True
        for event in self.plan.events:
            self.sim.schedule_at(event.at, lambda event=event: self._apply(event))
        return self

    # -- application ---------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        targets = handler(event)
        self.applied.append({"at": self.sim.now, "kind": event.kind,
                             "targets": targets})

    def _apply_partition(self, event: FaultEvent) -> list[str]:
        group_a = self._resolve(event.group_a)
        group_b = self._resolve(event.group_b)
        self.network.partition(group_a, group_b, symmetric=event.symmetric)
        self.recorder.note_fault("partition", f"{group_a}<->{group_b}",
                                 self.sim.now, event.until)
        if event.until is not None:
            self.sim.schedule_at(event.until, lambda: self.network.heal_partition(group_a, group_b))
        return group_a + group_b

    def _apply_link_degrade(self, event: FaultEvent) -> list[str]:
        group_a = self._resolve(event.group_a)
        group_b = self._resolve(event.group_b)
        pairs = [(a, b) for a in group_a for b in group_b if a != b]
        for a, b in pairs:
            self.network.set_link_fault(
                a, b, loss=event.loss, duplicate=event.duplicate,
                reorder_jitter=event.reorder, extra_latency=event.extra_latency,
                symmetric=event.symmetric)
        self.recorder.note_fault(event.kind, f"{group_a}<->{group_b}",
                                 self.sim.now, event.until)
        if event.until is not None:

            def clear() -> None:
                for a, b in pairs:
                    self.network.clear_link_fault(a, b, symmetric=event.symmetric)

            self.sim.schedule_at(event.until, clear)
        return group_a + group_b

    # latency_spike is link_degrade with only extra_latency set; the DSL
    # constructor guarantees that shape.
    _apply_latency_spike = _apply_link_degrade

    def _apply_crash(self, event: FaultEvent) -> list[str]:
        targets = self._resolve(event.targets)
        for address in targets:
            self._crash_target(address, event.until)
        if event.until is not None:
            self.sim.schedule_at(
                event.until, lambda: [self._restart_target(address) for address in targets]
            )
        return targets

    def _apply_restart(self, event: FaultEvent) -> list[str]:
        targets = self._resolve(event.targets)
        for address in targets:
            self._restart_target(address)
        return targets

    def _apply_clock_skew(self, event: FaultEvent) -> list[str]:
        targets = self._resolve(event.targets)
        hosts = [self.network.host(address) for address in targets]
        for host in hosts:
            if host is not None:
                host.clock_offset = event.skew
        self.recorder.note_fault("clock_skew", ",".join(targets),
                                 self.sim.now, event.until)
        if event.until is not None:

            def reset() -> None:
                for host in hosts:
                    if host is not None:
                        host.clock_offset = 0.0

            self.sim.schedule_at(event.until, reset)
        return targets

    # -- component dispatch ----------------------------------------------------------

    def _crash_target(self, address: str, until: Optional[float]) -> None:
        self.recorder.note_fault("crash", address, self.sim.now, until)
        plane = self.plane
        if plane is not None and any(service.address == address for service in plane.services):
            plane.crash_shard(address)
            return
        policy = self.policy_plane
        if policy is not None and hasattr(policy, "crash_replica"):
            consumer = policy.consumer_at(address)
            if consumer is not None:
                policy.crash_replica(consumer)
                return
        node = self.nodes.get(address)
        if node is not None:
            node.crash()
            return
        host = self.network.host(address)
        if host is None:
            raise ValidationError(f"crash target {address!r} is not a known host")
        self._crashed_hosts[address] = host
        self.network.detach(address)

    def _restart_target(self, address: str) -> None:
        now = self.sim.now
        plane = self.plane
        if plane is not None and any(service.address == address for service in plane.crashed()):
            service = plane.restart_shard(address)
            self.recorder.watch_pdp_recovery(service, now)
            return
        policy = self.policy_plane
        if policy is not None and hasattr(policy, "restart_replica"):
            consumer = policy.consumer_at(address)
            if consumer is not None:
                policy.restart_replica(consumer)
                self.recorder.watch_replica_recovery(policy, consumer, now)
                return
        node = self.nodes.get(address)
        if node is not None:
            node.restart()
            self.recorder.watch_chain_node_recovery(
                node, self.nodes.values(), now)
            return
        host = self._crashed_hosts.pop(address, None)
        if host is None:
            raise ValidationError(
                f"restart target {address!r} was never crashed by this controller")
        self.network.attach(host)

    # -- target resolution -------------------------------------------------------------

    def _candidates(self) -> list[str]:
        candidates = set(self.network.hosts())
        if self.plane is not None:
            candidates.update(s.address for s in self.plane.services)
            candidates.update(s.address for s in self.plane.crashed())
        if self.policy_plane is not None and hasattr(self.policy_plane,
                                                     "replica_addresses"):
            candidates.update(self.policy_plane.replica_addresses())
        candidates.update(self.nodes)
        candidates.update(self._crashed_hosts)
        return sorted(candidates)

    def _resolve(self, patterns: tuple[str, ...]) -> list[str]:
        """Expand address patterns against the current topology, in order."""
        candidates = self._candidates()
        resolved: list[str] = []
        for pattern in patterns:
            if _PATTERN_CHARS.isdisjoint(pattern):
                matched = [pattern]
            else:
                matched = [c for c in candidates if fnmatch(c, pattern)]
                if not matched:
                    raise ValidationError(
                        f"fault target pattern {pattern!r} matched no host "
                        f"(known: {candidates})")
            for address in matched:
                if address not in resolved:
                    resolved.append(address)
        return resolved
