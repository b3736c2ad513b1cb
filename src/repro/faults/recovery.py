"""Recovery SLOs: turning a chaos run into numbers.

The :class:`RecoveryRecorder` rides along with a
:class:`~repro.faults.chaos.ChaosController`: every applied fault is noted
with its window, and every restart arms a *recovery watch* whose
completion timestamps the component's time-to-recover (TTR):

- a restarted **PDP shard** has recovered when it serves its first
  post-restart decision (a one-shot ``on_decision`` hook — no polling);
- a restarted **PRP replica** has recovered when its version history
  matches the authority head again (anti-entropy convergence, polled);
- a rejoined **chain node** has recovered when its sync handshake is done
  and its head equals a live peer's head (polled).

On top of the per-component TTRs the recorder keeps before/after marks of
every PEP's ``timeouts`` / ``failovers`` / ``churn_reroutes`` counters, so
a run can report decisions *lost* (timed out entirely) separately from
decisions *re-routed* (failed over and still answered) — the paper-level
distinction between degraded and broken.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.simnet.simulator import Simulator


class RecoveryRecorder:
    """Accumulates fault windows, recovery times and PEP loss accounting."""

    #: Convergence watches poll at this period (simulated seconds).
    poll_interval = 0.05
    #: A watch gives up after this many polls (a bounded simulation must
    #: not carry an immortal periodic event for a target that never
    #: converges — the missing recovery entry *is* the finding).
    max_polls = 4000

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Applied fault timeline: kind, target(s), onset, reversal.
        self.faults: list[dict] = []
        #: Completed recoveries: component, target, restarted_at,
        #: recovered_at, ttr.
        self.recoveries: list[dict] = []
        #: Watches armed but not (yet) completed.
        self.watching = 0
        self._pep_marks: list[tuple] = []

    # -- timeline ----------------------------------------------------------------

    def note_fault(self, kind: str, target: str, at: float,
                   until: Optional[float] = None) -> None:
        self.faults.append({"kind": kind, "target": target, "at": at, "until": until})

    # -- recovery watches ---------------------------------------------------------

    def _record(self, component: str, target: str, restarted_at: float) -> None:
        now = self.sim.now
        self.watching -= 1
        self.recoveries.append({
            "component": component,
            "target": target,
            "restarted_at": restarted_at,
            "recovered_at": now,
            "ttr": now - restarted_at,
        })

    def watch_pdp_recovery(self, service, restarted_at: float) -> None:
        """TTR ends at the shard's first post-restart decision."""
        self.watching += 1

        def hook(request, decision) -> None:
            service.on_decision.remove(hook)
            self._record("pdp-shard", service.address, restarted_at)

        service.on_decision.append(hook)

    def watch_replica_recovery(self, policy_plane, consumer: str,
                               restarted_at: float) -> None:
        """TTR ends when the replica's history matches the authority again."""
        authority = policy_plane.authority
        replica = policy_plane.replicas()[consumer]

        def converged() -> bool:
            head = authority.version_count()
            if replica.version_count() != head:
                return False
            return head == 0 or (
                replica.current().fingerprint == authority.current().fingerprint)

        self._poll("prp-replica", consumer, restarted_at, converged)

    def watch_chain_node_recovery(self, node, peers: Iterable,
                                  restarted_at: float) -> None:
        """TTR ends when sync finished and the head matches a live peer."""
        peer_nodes = [p for p in peers if p is not node]

        def converged() -> bool:
            if node.crashed or node._syncing:
                return False
            reference = next((p for p in peer_nodes if not p.crashed), None)
            if reference is None:
                return False
            return node.chain.head.hash == reference.chain.head.hash

        self._poll("chain-node", node.address, restarted_at, converged)

    def _poll(self, component: str, target: str, restarted_at: float,
              converged) -> None:
        self.watching += 1
        state = {"polls": 0}

        def poll() -> None:
            if converged():
                self._record(component, target, restarted_at)
                return
            state["polls"] += 1
            if state["polls"] >= self.max_polls:
                self.watching -= 1
                return
            self.sim.post(self.poll_interval, poll)

        self.sim.post(self.poll_interval, poll)

    # -- decisions lost vs re-routed ----------------------------------------------

    def bind_peps(self, peps: Iterable) -> None:
        """Snapshot PEP counters; ``pep_deltas`` reports growth since."""
        self._pep_marks = [
            (pep, pep.timeouts, pep.failovers, pep.churn_reroutes) for pep in peps
        ]

    def pep_deltas(self) -> dict:
        lost = rerouted = churned = 0
        for pep, timeouts, failovers, churn in self._pep_marks:
            lost += pep.timeouts - timeouts
            rerouted += pep.failovers - failovers
            churned += pep.churn_reroutes - churn
        return {
            "decisions_lost": lost,
            "decisions_rerouted": rerouted,
            "churn_reroutes": churned,
        }

    # -- summary -------------------------------------------------------------------

    def slos(self) -> dict:
        """The recovery report the fault benchmark serialises."""
        ttrs = [entry["ttr"] for entry in self.recoveries]
        return {
            "faults": list(self.faults),
            "recoveries": list(self.recoveries),
            "watches_outstanding": self.watching,
            "max_ttr": max(ttrs) if ttrs else 0.0,
            "mean_ttr": (sum(ttrs) / len(ttrs)) if ttrs else 0.0,
            "pep": self.pep_deltas(),
        }
