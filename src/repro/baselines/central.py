"""Centralized log-monitoring baseline.

One collector host receives every probe's log entries, stores them in a
local database and runs DRAMS's own rules (:mod:`repro.drams.rules`) on
the plaintext: the log rules, timing out in seconds, and the decision and
provenance check with DRAMS's default staleness bound and grace.
``tests/test_monitor_parity.py`` holds it to DRAMS's alerts on one log stream.

It is also a single point of failure: :meth:`CentralizedMonitor.compromise`
models an attacker who owns the collector — incoming evidence is discarded
and stored evidence scrubbed, invisibly (contrast with the chain, where even
a failed rewrite attempt leaves forked blocks behind).
"""

from __future__ import annotations

from typing import Optional

from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.drams.alerts import Alert, AlertBus, AlertType
from repro.drams.logs import EntryType, LogEntry
from repro.drams.probe import (
    ProbeAgent,
    attach_pep_probes,
    attach_plane_probes,
    follow_plane_membership,
)
from repro.drams.rules import ALERT, CLAIM, LogRules, PolicyHistory, declared_stamp, first_alert
from repro.drams.system import DramsConfig
from repro.federation.federation import Federation
from repro.simnet.network import Host, Message, Network
from repro.storage.database import DatabaseStore

#: Seconds between sweeps (timeouts, retries of what could not be judged yet).
SWEEP_INTERVAL = 2.0


def _read(entry: Optional[dict], field: str) -> Optional[dict]:
    if entry is None or field not in entry["payload"]:
        return None
    return entry["payload"]


class CentralizedMonitor(Host):
    """All-in-one log collector, matcher and analyser."""

    def __init__(
        self,
        network: Network,
        address: str,
        prp: PolicyRetrievalPoint,
        rng: SeededRng,
        timeout_seconds: float = 10.0,
    ) -> None:
        super().__init__(network, address)
        self.prp = prp
        self.timeout_seconds = timeout_seconds
        self.database = DatabaseStore(self.sim, rng, name="central-logs")
        self.alerts = AlertBus()
        self.rules = LogRules(timeout_seconds, "age_seconds", "payload")
        self.policies = PolicyHistory(prp.history(), DramsConfig.policy_staleness_bound)
        prp.on_publish(lambda version: self.policies.add(version, self.sim.now))
        self.records: dict[str, dict] = {}
        self.logs_received = 0
        self.logs_discarded = 0
        self.checked_decisions = 0
        self.compromised = False
        # Correlations the timeout watches, whose decision or churn claims
        # wait to be judged; when an unknown fingerprint was first met.
        self._pending: dict[str, None] = {}
        self._unchecked: dict[str, None] = {}
        self._claims: dict[str, None] = {}
        self._unknown_since: dict[str, float] = {}
        self._stop_sweep = None

    def start(self) -> None:
        if self._stop_sweep is None:
            self._stop_sweep = self.sim.every(SWEEP_INTERVAL, self.sweep)

    def compromise(self) -> None:
        """The attacker owns the collector: scrub evidence, go blind.

        Stored rows go through the store's adversary API; a write still in
        flight is scrubbed as it commits (:meth:`_scrub_if_compromised`).
        """
        self.compromised = True
        for index in (self.records, self._pending, self._unchecked, self._claims):
            index.clear()
        for key in self.database.keys_in_order():
            self.database.delete(key)

    def _scrub_if_compromised(self, key: str) -> None:
        if self.compromised:
            self.database.delete(key)

    def _handle_log(self, message: Message, entry: LogEntry) -> None:
        if self.compromised:
            self.logs_discarded += 1
            return
        self.logs_received += 1
        cid, entry_type = entry.correlation_id, entry.entry_type
        record = self.records.get(cid)
        if record is None:
            record = {"first_seen": self.sim.now, "entries": {}, "alerted": {}, "complete": False}
            self.records[cid] = record
            self._pending[cid] = None
        logged = {
            "payload_hash": entry.payload_hash(),
            "component": entry.component,
            "observed_at": entry.observed_at,
            "payload": entry.payload,
            **declared_stamp(entry.payload),
        }
        if entry_type in record["entries"]:
            report = {"entry_type": entry_type, **logged}
            self._fire(cid, self.rules.repeat(record, entry_type, report)[1])
            return
        self.database.write(
            f"{cid}:{entry_type}", entry.to_dict(), on_ack=self._scrub_if_compromised
        )
        self._fire(cid, self.rules.add(record, entry_type, logged))
        if entry_type != EntryType.PEP_OUT and not record.get("checked"):  # may complete a check
            self._unchecked[cid] = None
            self._check_decision(cid)

    RECEIVES = {"drams_log": (LogEntry, _handle_log)}

    def _grace_left(self, key: str) -> bool:
        first_failed = self._unknown_since.setdefault(key, self.sim.now)
        return self.sim.now - first_failed < DramsConfig.unknown_policy_grace

    def _check_decision(self, cid: str) -> None:
        record = self.records[cid]
        verdict = self.policies.judge_decision(
            record, _read, self.sim.now, lambda: self._grace_left(cid)
        )
        if verdict is None:
            return  # the sweep retries
        record["checked"] = True
        del self._unchecked[cid]
        self._unknown_since.pop(cid, None)
        self.checked_decisions += 1
        if verdict.alert:
            self._raise(cid, verdict.alert, verdict.details)

    def _audit(self, cid: str) -> None:
        grace_key = f"{cid}#churn"
        verdict = self.policies.judge_claims(
            self.records[cid], _read, lambda: self._grace_left(grace_key)
        )
        if verdict is None:
            return  # the sweep retries
        del self._claims[cid]
        self._unknown_since.pop(grace_key, None)
        if verdict.alert:
            self._raise(cid, verdict.alert, verdict.details)

    def _fire(self, cid: str, effects: list) -> None:
        for kind, name, details in effects:
            if kind == ALERT:
                self._raise(cid, name, details)
            elif kind == CLAIM:
                self._claims[cid] = None
                self._audit(cid)
            else:  # complete
                self._pending.pop(cid, None)

    def _raise(self, cid: str, alert_type: str, details: dict) -> None:
        if first_alert(self.records[cid], alert_type):
            alert = Alert(AlertType(alert_type), cid, details, 0, raised_at=self.sim.now)
            self.alerts.publish(alert)

    def sweep(self) -> int:
        """Retry what could not be judged yet, then flag overdue records; returns the flagged."""
        if self.compromised:
            return 0
        for cid in list(self._claims):
            self._audit(cid)
        for cid in list(self._unchecked):
            self._check_decision(cid)
        flagged = 0
        for cid in list(self._pending):
            record = self.records[cid]
            effects = self.rules.expire(record, self.sim.now - record["first_seen"])
            if effects is not None:
                del self._pending[cid]
                flagged += len(effects)
                self._fire(cid, effects)
        return flagged


def attach_centralized_monitoring(
    federation: Federation,
    plane: ShardedPdpPlane,
    peps: dict[str, PolicyEnforcementPoint],
    prp: PolicyRetrievalPoint,
    timeout_seconds: float = 10.0,
) -> tuple[CentralizedMonitor, dict[str, ProbeAgent]]:
    """Deploy the baseline: one collector in the infrastructure tenant.

    Reuses DRAMS's probes and rules — only the destination differs — so any
    detection difference is attributable to the monitoring architecture, not
    the instrumentation or the checks.  Probes attach to every PDP replica
    of the federation's decision plane.
    """
    if not isinstance(plane, ShardedPdpPlane):
        raise ValidationError(f"expected a ShardedPdpPlane, got {type(plane).__name__}")
    infra = federation.infrastructure_tenant
    address = infra.address("central-monitor")
    monitor = CentralizedMonitor(
        federation.network, address, prp, federation.rng, timeout_seconds=timeout_seconds
    )
    infra.register_host(monitor.address)
    probes: dict[str, ProbeAgent] = {}
    for tenant_name, pep in peps.items():
        probes[f"pep:{tenant_name}"] = attach_pep_probes(pep, monitor.address)
    probes.update(attach_plane_probes(plane, infra.name, monitor.address))
    # Coverage follows elastic membership by DRAMS's own protocol.
    follow_plane_membership(plane, probes, infra.name, monitor.address)
    federation.finalize_topology()
    return monitor, probes
