"""The Analyser.

A standalone entity logically placed in the infrastructure tenant but
deployed in a *different cloud section* from the access control components
(so compromising the PDP's section does not silence it).  It dynamically
consumes the gathered logs and checks, against a formally-grounded
representation of the policies in force, that every decision the PDP issued
is the one the policies entail.

Dataflow per decision:

1. its blockchain node applies a block containing a ``pdp-out`` log entry →
   contract emits ``LogRecorded`` → the Analyser wakes up;
2. it reads the correlation's stored ciphertexts from the replicated
   contract state and decrypts the request (``pdp-in``, falling back to
   ``pep-in``) and the decision (``pdp-out``) with the federation key K;
3. its :class:`~repro.drams.rules.PolicyHistory` — fed by its *own* PRP
   replica, which an attacker altering a PDP's replica cannot alter —
   judges the decision and its policy stamp (staleness, provenance), and
   every churn claim the contract announces;
4. a failed judgement becomes a ``report_violation`` transaction, so the
   alert is raised *on-chain* and reaches every tenant's Logging Interface.

The judgements are the shared rules the centralized baseline runs too; the
Analyser keeps decryption, the grace for its own replica lagging
(``unknown_policy_grace`` seconds before an unknown stamp counts as a
tampered policy), tracing spans and the on-chain reports.  A ciphertext
that does not decrypt, plaintext that is not JSON, or a payload without the
``content`` / ``decision`` being read counts in ``decryption_failures`` and
reads as not yet readable.
"""

from __future__ import annotations

from typing import Optional

from repro.accesscontrol.prp import PolicyRetrievalPoint
from repro.blockchain.contracts import ContractEvent
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.errors import CryptoError, SerializationError
from repro.common.serialization import from_json
from repro.crypto.signatures import SigningKey
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.drams.contract import CONTRACT_NAME, EVENT_CHURN_REPORT, EVENT_LOG_RECORDED
from repro.drams.logs import EntryType
from repro.drams.rules import PolicyHistory, Verdict
from repro.simnet.network import Host, Network


class Analyser(Host):
    """Decision-correctness checker backed by the formal semantics."""

    def __init__(
        self,
        network: Network,
        address: str,
        node: BlockchainNode,
        signing_key: SigningKey,
        federation_key: SymmetricKey,
        prp: PolicyRetrievalPoint,
        policy_staleness_bound: int = 1,
        unknown_policy_grace: float = 5.0,
    ) -> None:
        super().__init__(network, address)
        self.node = node
        self.signing_key = signing_key
        self.federation_key = federation_key
        self.prp = prp
        self.unknown_policy_grace = unknown_policy_grace
        self.checked = 0
        self.violations_reported = 0
        self.policy_violations_reported = 0
        self.churn_observed = 0
        self.churn_audits = 0
        self.decryption_failures = 0
        self.unresolved = 0
        self._seq = 0
        self._verified: set[str] = set()
        # Correlations seen in a checkable event but not yet verified, and
        # churn-alerted ones not yet fully audited: sweeps walk these, so
        # cost O(pending), not O(records).  Dicts, not sets: iteration in
        # insertion order (string hashing is salted, and sweep order feeds
        # the chain).  Refuted churn is not re-audited (the alert is deduped).
        self._pending: dict[str, None] = {}
        self._churn_pending: dict[str, None] = {}
        self._churn_refuted: set[str] = set()
        # Grace key → the simulated time an unknown stamp was first met.
        self._unknown_since: dict[str, float] = {}
        self.policies = PolicyHistory(prp.history(), policy_staleness_bound)
        prp.on_publish(lambda version: self.policies.add(version, self.sim.now))
        node.chain.subscribe_events(self._on_contract_event)

    @property
    def pending_correlations(self) -> int:
        """Size of the unverified-correlation index (per-sweep workload)."""
        return len(self._pending)

    def _on_contract_event(self, event: ContractEvent, block_hash: str) -> None:
        if event.contract != CONTRACT_NAME:
            return
        if event.name == EVENT_CHURN_REPORT:
            # One event per conflicting claim (the alert is deduped, the
            # announcement is not), so every claim is audited.
            correlation_id = event.payload["correlation_id"]
            self._churn_pending[correlation_id] = None
            self._audit_churn(correlation_id)
            return
        if event.name != EVENT_LOG_RECORDED:
            return
        # A decision becomes checkable once pdp-out AND a request leg are
        # on-chain; either side may land first, so react to both.
        entry_type = event.payload.get("entry_type")
        if entry_type not in (EntryType.PDP_OUT, EntryType.PDP_IN, EntryType.PEP_IN):
            return
        correlation_id = event.payload["correlation_id"]
        if correlation_id in self._verified:
            return
        tracer = self.network.telemetry
        if tracer is not None:
            # Open from the first checkable event to verification — the
            # "audit lag" tail of the decision's critical path.  Idempotent
            # across the several contract events one correlation produces.
            tracer.open_span(
                ("analyser.audit", correlation_id),
                "analyser.audit",
                self.address,
                parent=tracer.context_for(correlation_id),
                category="monitor",
            )
        self._pending[correlation_id] = None
        self._check_decision(correlation_id)

    def _read(self, entry: Optional[dict], field: str) -> Optional[dict]:
        """The decrypted payload of ``entry`` if it holds ``field``; else None."""
        if entry is None or "ciphertext" not in entry:
            return None
        try:
            blob = EncryptedBlob.from_dict(entry["ciphertext"])
            payload = from_json(self.federation_key.decrypt(blob).decode("utf-8"))
        except (CryptoError, SerializationError, UnicodeDecodeError):
            payload = None
        if isinstance(payload, dict) and field in payload:
            return payload
        self.decryption_failures += 1
        return None

    def _grace_left(self, key: str) -> bool:
        first_failed = self._unknown_since.setdefault(key, self.sim.now)
        return self.sim.now - first_failed < self.unknown_policy_grace

    def _check_decision(self, correlation_id: str) -> None:
        record = self.node.chain.state_of(CONTRACT_NAME)["records"].get(correlation_id)
        if record is None:
            return
        verdict = self.policies.judge_decision(
            record, self._read, self.sim.now, lambda: self._grace_left(correlation_id)
        )
        if verdict is None:
            # A leg not yet readable (retried on the next pdp-in / pep-in
            # event or sweep), or an unknown stamp within the grace.
            self.unresolved += 1
            return
        self._verified.add(correlation_id)
        self._pending.pop(correlation_id, None)
        self._unknown_since.pop(correlation_id, None)
        self.checked += 1
        tracer = self.network.telemetry
        if tracer is not None:
            tracer.close_span(("analyser.audit", correlation_id), "checked", strict=False)
        if verdict.trailing:
            self.churn_observed += 1
        if verdict.alert:
            self._submit_violation(correlation_id, verdict)

    def _audit_churn(self, correlation_id: str) -> None:
        """Verify every policy-version claim behind a churn classification."""
        grace_key = f"{correlation_id}#churn"
        record = self.node.chain.state_of(CONTRACT_NAME)["records"].get(correlation_id)
        if correlation_id in self._churn_refuted or record is None:
            # Already refuted, or pruned by retention (or reorged away).
            self._churn_pending.pop(correlation_id, None)
            self._unknown_since.pop(grace_key, None)
            return
        verdict = self.policies.judge_claims(record, self._read, lambda: self._grace_left(grace_key))
        if verdict is None:
            self.unresolved += 1  # the sweep retries
            return
        if verdict.alert:
            self._churn_refuted.add(correlation_id)
            self._submit_violation(correlation_id, verdict)
        self._churn_pending.pop(correlation_id, None)
        self._unknown_since.pop(grace_key, None)
        self.churn_audits += 1

    def _submit_violation(self, correlation_id: str, verdict: Verdict) -> None:
        kind, details = verdict.alert, verdict.details
        if kind == "policy-violation":
            self.policy_violations_reported += 1
        else:
            self.violations_reported += 1
        tracer = self.network.telemetry
        if tracer is not None:
            tracer.instant(
                "analyser.violation",
                self.address,
                context=tracer.context_for(correlation_id),
                category="monitor",
                attrs={"kind": kind, "reason": details.get("reason", "")},
            )
        self._seq += 1
        tx = Transaction(
            sender=self.address,
            contract=CONTRACT_NAME,
            method="report_violation",
            args={"correlation_id": correlation_id, "kind": kind, "details": details},
            seq=self._seq,
            tx_id=self.sim.new_id("tx"),
        ).sign(self.signing_key)
        self.node.submit_transaction(tx)

    def sweep(self) -> int:
        """Re-examine what could not be judged yet; returns the decisions checked.

        Covers request legs landing after the decision leg, unknown stamps
        waiting out the grace, and churn claims whose audit could not
        complete.  Walks the pending indices only, so steady-state sweeps
        over a mostly-verified chain cost nothing.
        """
        tracer = self.network.telemetry
        if tracer is None:
            return self._sweep()
        with tracer.span("analyser.sweep", self.address, parent=None, category="background") as span:
            checked = self._sweep()
            span.attrs["checked"] = checked
        return checked

    def _sweep(self) -> int:
        for correlation_id in list(self._churn_pending):
            self._audit_churn(correlation_id)
        if not self._pending:
            return 0
        records = self.node.chain.state_of(CONTRACT_NAME)["records"]
        before = self.checked
        for correlation_id in list(self._pending):
            record = records.get(correlation_id)
            if record is None:
                # Pruned by retention (or reorged away): stop re-visiting it.
                self._pending.pop(correlation_id, None)
                self._unknown_since.pop(correlation_id, None)
            elif EntryType.PDP_OUT in record["entries"]:
                self._check_decision(correlation_id)
        return self.checked - before
