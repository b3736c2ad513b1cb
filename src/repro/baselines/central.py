"""Centralized log-monitoring baseline.

One collector host receives every probe's log entries, stores them in a
local database and runs the DRAMS matching algorithms in-process:

- request-leg / decision-leg hash matching,
- equivocation detection,
- timeout sweeps (in seconds — no blocks here),
- decision-correctness checks against the PRP's policies (it holds the
  plaintext, so no decryption round-trip is needed).

Being a single component, it is also a single point of failure:
:meth:`CentralizedMonitor.compromise` models an attacker who owns the
collector — incoming evidence is discarded and stored evidence scrubbed,
after which nothing is ever detected again.  There is no tamper-evidence:
the scrubbing itself is invisible (contrast with the chain, where even a
failed rewrite attempt leaves forked blocks behind).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.semantics import DecisionOracle
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
from repro.federation.federation import Federation
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import DecisionPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.simnet.network import Host, Message, Network
from repro.storage.database import DatabaseConfig, DatabaseStore


class CentralizedMonitor(Host):
    """All-in-one log collector, matcher and analyser."""

    def __init__(
        self,
        network: Network,
        address: str,
        prp: PolicyRetrievalPoint,
        rng: SeededRng,
        timeout_seconds: float = 10.0,
        sweep_interval: float = 2.0,
        db_config: Optional[DatabaseConfig] = None,
    ) -> None:
        super().__init__(network, address)
        self.prp = prp
        self.timeout_seconds = timeout_seconds
        self.sweep_interval = sweep_interval
        self.database = DatabaseStore(self.sim, rng, db_config, name="central-logs")
        self.alerts = AlertBus()
        self.records: dict[str, dict] = {}
        self.logs_received = 0
        self.logs_discarded = 0
        self.checked_decisions = 0
        self.compromised = False
        self._oracle: Optional[DecisionOracle] = None
        self._oracle_fingerprint = ""
        self._stop_sweep = None

    def start(self) -> None:
        if self._stop_sweep is None:
            self._stop_sweep = self.sim.every(self.sweep_interval, self.sweep, label="central-sweep")

    # -- compromise (the baseline's weak spot) -----------------------------------

    def compromise(self) -> None:
        """The attacker owns the collector: scrub evidence, go blind."""
        self.compromised = True
        self.records.clear()

    # -- ingestion -------------------------------------------------------------------

    def _handle_log(self, message: Message, entry: LogEntry) -> None:
        if self.compromised:
            self.logs_discarded += 1
            return
        self.logs_received += 1
        self._ingest(entry)

    RECEIVES = {"drams_log": (LogEntry, _handle_log)}

    def _ingest(self, entry: LogEntry) -> None:
        cid, entry_type = entry.correlation_id, entry.entry_type
        fresh = {"first_seen": self.sim.now, "entries": {}, "alerted": set(), "complete": False}
        record = self.records.setdefault(cid, fresh)
        entries = record["entries"]
        existing = entries.get(entry_type)
        payload_hash = entry.payload_hash()
        if existing is not None:
            if existing["payload_hash"] != payload_hash:
                self._raise(record, AlertType.EQUIVOCATION, cid, {"entry_type": entry_type})
            return
        entries[entry_type] = {
            "payload_hash": payload_hash,
            "payload": entry.payload,
            "component": entry.component,
        }
        self.database.write(f"{cid}:{entry_type}", entry.to_dict())
        self._match_leg(record, cid, EntryType.REQUEST_LEG, AlertType.REQUEST_MISMATCH)
        self._match_leg(record, cid, EntryType.DECISION_LEG, AlertType.DECISION_MISMATCH)
        if entry_type in (EntryType.PDP_OUT, EntryType.PDP_IN, EntryType.PEP_IN):
            self._check_decision(record, cid)
        if not record["complete"] and all(t in entries for t in EntryType.ALL):
            record["complete"] = True

    # -- matching ---------------------------------------------------------------------

    def _match_leg(
        self, record: dict, correlation_id: str, leg: tuple[str, str], alert_type: AlertType
    ) -> None:
        first, second = leg
        entries = record["entries"]
        if first in entries and second in entries:
            if entries[first]["payload_hash"] != entries[second]["payload_hash"]:
                self._raise(record, alert_type, correlation_id, {"leg": [first, second]})

    def _check_decision(self, record: dict, correlation_id: str) -> None:
        entries = record["entries"]
        decision_entry = entries.get(EntryType.PDP_OUT)
        request_entry = entries.get(EntryType.PDP_IN) or entries.get(EntryType.PEP_IN)
        if decision_entry is None or request_entry is None:
            return
        if record.get("decision_checked"):
            return
        record["decision_checked"] = True
        self.checked_decisions += 1
        oracle = self._current_oracle()
        if oracle is None:
            return
        expected = oracle.expected_decision(request_entry["payload"]["content"])
        observed = decision_entry["payload"]["decision"]
        if expected != observed:
            details = {"expected": expected, "observed": observed}
            self._raise(record, AlertType.INCORRECT_DECISION, correlation_id, details)

    def _current_oracle(self) -> Optional[DecisionOracle]:
        if self.prp.version_count() == 0:
            return None
        version = self.prp.current()
        if self._oracle is None or self._oracle_fingerprint != version.fingerprint:
            self._oracle = DecisionOracle(version.document)
            self._oracle_fingerprint = version.fingerprint
        return self._oracle

    # -- timeout sweep ------------------------------------------------------------------

    def sweep(self) -> int:
        if self.compromised:
            return 0
        flagged = 0
        for correlation_id, record in self.records.items():
            if record["complete"] or AlertType.MISSING_LOG.value in record["alerted"]:
                continue
            if self.sim.now - record["first_seen"] >= self.timeout_seconds:
                missing = [t for t in EntryType.ALL if t not in record["entries"]]
                if missing:
                    self._raise(record, AlertType.MISSING_LOG, correlation_id, {"missing": missing})
                    flagged += 1
                else:
                    record["alerted"].add(AlertType.MISSING_LOG.value)
        return flagged

    # -- alerts -----------------------------------------------------------------------------

    def _raise(
        self, record: dict, alert_type: AlertType, correlation_id: str, details: dict
    ) -> None:
        if alert_type.value in record["alerted"]:
            return
        record["alerted"].add(alert_type.value)
        alert = Alert(alert_type, correlation_id, details, block_height=0, raised_at=self.sim.now)
        self.alerts.publish(alert)


def attach_centralized_monitoring(
    federation: Federation,
    plane: DecisionPlane,
    peps: dict[str, PolicyEnforcementPoint],
    prp: PolicyRetrievalPoint,
    timeout_seconds: float = 10.0,
) -> tuple[CentralizedMonitor, dict[str, ProbeAgent]]:
    """Deploy the baseline: one collector in the infrastructure tenant.

    Reuses the same probe implementation as DRAMS — only the destination
    differs — so any detection difference is attributable to the
    monitoring architecture, not the instrumentation.  Probes attach to
    every PDP replica of the federation's decision plane.
    """
    if not isinstance(plane, DecisionPlane):
        raise ValidationError(f"expected a DecisionPlane, got {type(plane).__name__}")
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
    # Coverage follows elastic membership through the same protocol DRAMS
    # uses: probe new shards before their first request, release drained
    # ones once quiescent.
    follow_plane_membership(plane, probes, infra.name, monitor.address)
    federation.finalize_topology()
    return monitor, probes
