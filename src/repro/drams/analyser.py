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
   contract state, decrypts the request (``pdp-in``, falling back to
   ``pep-in``) and the decision (``pdp-out``) with the federation key K;
3. the :class:`~repro.analysis.semantics.DecisionOracle` for the decision's
   *declared* policy version re-derives the expected decision;
4. on disagreement it submits a ``report_violation`` transaction, so the
   ``INCORRECT_DECISION`` alert is raised *on-chain* and reaches every
   tenant's Logging Interface.

Policy provenance audit: every decision is stamped with the policy
``(version, fingerprint)`` the evaluator claims it decided under.  The
Analyser checks that stamp against its *own* policy history (its PRP
replica — an attacker altering a PDP's replica cannot alter the
Analyser's):

- **known fingerprint, skew within ``policy_staleness_bound``** — honest
  propagation churn: the decision is audited against the declared
  version's oracle and counted in ``churn_observed`` when the declared
  version trails the one in force at decision time;
- **known fingerprint, skew beyond the bound** — a replica serving a
  long-superseded policy (``StalePolicyReplayAttack``) → on-chain
  ``policy-violation``;
- **unknown fingerprint** — either the Analyser's replica is still behind
  (the correlation is left pending for ``unknown_policy_grace`` seconds of
  simulated time and re-examined by the sweep) or, once the grace is
  exhausted, a tampered policy document no publisher ever signed off
  (``TamperedPrpReplicaAttack``) → on-chain ``policy-violation``.

Churn audit: the monitor contract downgrades a conflicting decision
report to ``POLICY_CHURN`` when the two sides declare different policy
versions — but those stamps live in attacker-reachable payloads, so the
Analyser treats every churn alert as a claim to verify.  It decrypts each
churn-classified decision payload (the recorded ``pdp-out``/``pep-out``
entries plus the contract's kept ``churn_reports``) and demands that the
claimed fingerprint belongs to a published version *and* that the
decision is exactly what that version entails for the request.  Any
failed claim becomes an on-chain ``policy-violation`` — so a tamperer can
only earn the churn label by acting as an honest replica under a real
policy version, which is churn by definition.

Oracles are created once per policy version and cached; that single
creation compiles the document through the target index, so the
per-decision cost is an indexed evaluation rather than a document-tree
interpretation.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.semantics import DecisionOracle
from repro.blockchain.contracts import ContractEvent
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.errors import CryptoError
from repro.common.serialization import from_json
from repro.crypto.signatures import SigningKey
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.drams.contract import (
    CONTRACT_NAME,
    EVENT_CHURN_REPORT,
    EVENT_LOG_RECORDED,
)
from repro.drams.logs import EntryType
from repro.accesscontrol.prp import PolicyRetrievalPoint, PolicyVersion
from repro.simnet.network import Host, Network


class Analyser(Host):
    """Decision-correctness checker backed by the formal semantics."""

    def __init__(self, network: Network, address: str,
                 node: BlockchainNode, signing_key: SigningKey,
                 federation_key: SymmetricKey, prp: PolicyRetrievalPoint,
                 policy_staleness_bound: int = 1,
                 unknown_policy_grace: float = 5.0) -> None:
        super().__init__(network, address)
        self.node = node
        self.signing_key = signing_key
        self.federation_key = federation_key
        self.prp = prp
        self.policy_staleness_bound = policy_staleness_bound
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
        # Pending-correlation index: every correlation seen in a checkable
        # contract event but not yet verified.  Sweeps walk this index
        # instead of the full replicated records map, so their cost is
        # O(pending) rather than O(all correlations ever recorded).  A
        # dict (not a set) keeps iteration in insertion order — string
        # hashing is salted per process, and sweep order feeds the chain.
        self._pending: dict[str, None] = {}
        # Churn-alerted correlations whose claims are not yet fully
        # audited (same insertion-ordered-index pattern as ``_pending``),
        # and correlations whose churn claims were already refuted (no
        # point re-auditing — the on-chain alert is deduped anyway).
        self._churn_pending: dict[str, None] = {}
        self._churn_refuted: set[str] = set()
        # Correlations whose declared policy fingerprint we have not seen
        # yet → the simulated time we first failed to resolve it.  Within
        # the grace window the likeliest cause is our own replica lagging.
        self._unknown_since: dict[str, float] = {}
        self._oracles: dict[int, DecisionOracle] = {}
        self._versions: list[PolicyVersion] = list(prp.history())
        self._fingerprints: dict[str, PolicyVersion] = {
            version.fingerprint: version for version in self._versions
        }
        # When each version became visible *to us* — the basis for "in
        # force at decision time".  History present at construction is
        # treated as always known.
        self._seen_at: dict[int, float] = {v.version: 0.0 for v in self._versions}
        prp.on_publish(self._on_policy_published)
        node.chain.subscribe_events(self._on_contract_event)

    @property
    def pending_correlations(self) -> int:
        """Size of the unverified-correlation index (per-sweep workload)."""
        return len(self._pending)

    # -- policy versions ------------------------------------------------------

    def _on_policy_published(self, version: PolicyVersion) -> None:
        self._versions.append(version)
        self._fingerprints[version.fingerprint] = version
        self._seen_at[version.version] = self.sim.now

    def _oracle_for(self, version: PolicyVersion) -> DecisionOracle:
        oracle = self._oracles.get(version.version)
        if oracle is None:
            oracle = DecisionOracle(version.document)
            self._oracles[version.version] = oracle
        return oracle

    def _version_in_force_at(self, when: float) -> Optional[PolicyVersion]:
        """Latest version this Analyser had seen by simulated time ``when``."""
        in_force = None
        for version in self._versions:
            if self._seen_at.get(version.version, 0.0) <= when:
                in_force = version
        return in_force

    # -- event-driven checking ---------------------------------------------------

    def _on_contract_event(self, event: ContractEvent, block_hash: str) -> None:
        if event.contract != CONTRACT_NAME:
            return
        if event.name == EVENT_CHURN_REPORT:
            # A churn classification is a *claim* the contract cannot
            # verify (it has no policy history); audit it here.  The
            # contract emits one event per conflicting claim — not
            # deduped like the alert — so claims arriving after the
            # first churn alert are audited too.
            correlation_id = event.payload["correlation_id"]
            self._churn_pending[correlation_id] = None
            self._audit_churn(correlation_id)
            return
        if event.name != EVENT_LOG_RECORDED:
            return
        entry_type = event.payload.get("entry_type")
        # A decision becomes checkable once pdp-out AND a request leg are
        # on-chain; either side may land first, so react to both.
        if entry_type not in (EntryType.PDP_OUT, EntryType.PDP_IN, EntryType.PEP_IN):
            return
        correlation_id = event.payload["correlation_id"]
        if correlation_id in self._verified:
            return
        if not self._admit(correlation_id):
            return
        tracer = self.network.telemetry
        if tracer is not None:
            # Open from first admission to verification — the "audit lag"
            # tail of the decision's critical path.  Idempotent across the
            # several contract events one correlation produces.
            tracer.open_span(("analyser.audit", correlation_id),
                             "analyser.audit", self.address,
                             parent=tracer.context_for(correlation_id),
                             category="monitor")
        self._pending[correlation_id] = None
        self._check_decision(correlation_id)

    def _admit(self, correlation_id: str) -> bool:
        """Audit-admission hook, called once per checkable contract event.

        The exhaustive Analyser audits every correlation.  Sampling
        subclasses (:class:`repro.lightclient.sampling.SamplingAnalyser`)
        override this with a deterministic seeded predicate, trading
        per-decision audit cost for a closed-form detection bound.  Churn
        claims are never sampled — they are alert-driven and rare.
        """
        return True

    def _decrypt_entry(self, entry: Optional[dict]) -> Optional[dict]:
        if entry is None or "ciphertext" not in entry:
            return None
        blob = EncryptedBlob.from_dict(entry["ciphertext"])
        try:
            plaintext = self.federation_key.decrypt(blob)
        except CryptoError:
            self.decryption_failures += 1
            return None
        return from_json(plaintext.decode("utf-8"))

    def _read_plaintext(self, record: dict, entry_type: str) -> Optional[dict]:
        return self._decrypt_entry(record["entries"].get(entry_type))

    def _check_decision(self, correlation_id: str) -> None:
        records = self.node.chain.state_of(CONTRACT_NAME)["records"]
        record = records.get(correlation_id)
        if record is None:
            return
        decision_payload = self._read_plaintext(record, EntryType.PDP_OUT)
        request_payload = (self._read_plaintext(record, EntryType.PDP_IN)
                           or self._read_plaintext(record, EntryType.PEP_IN))
        if decision_payload is None or request_payload is None:
            # Request leg not yet on chain; retry when it lands (the
            # LogRecorded event for it will not re-trigger pdp-out, so we
            # check again on the next pdp-in/pep-in event instead).
            self.unresolved += 1
            return
        stamped_fp = decision_payload.get("policy_fingerprint", "")
        if stamped_fp and stamped_fp not in self._fingerprints:
            # Unknown provenance: our replica may simply be behind.  Leave
            # the correlation pending and let the sweep retry; only when
            # the grace is exhausted does "unknown" mean "tampered".
            first_failed = self._unknown_since.setdefault(
                correlation_id, self.sim.now)
            if self.sim.now - first_failed < self.unknown_policy_grace:
                self.unresolved += 1
                return
        self._verified.add(correlation_id)
        self._pending.pop(correlation_id, None)
        self._unknown_since.pop(correlation_id, None)
        self.checked += 1
        tracer = self.network.telemetry
        if tracer is not None:
            tracer.close_span(("analyser.audit", correlation_id),
                              "checked", strict=False)
        observed = decision_payload["decision"]
        if stamped_fp and stamped_fp not in self._fingerprints:
            # No publisher ever produced this document: a tampered PRP
            # replica fed the evaluator a policy outside the history.
            # (Reported even while our own history is empty — a stamp
            # with no publishable origin is bad provenance either way.)
            self.policy_violations_reported += 1
            self._submit_violation(correlation_id, "policy-violation", {
                "reason": "unknown-policy-fingerprint",
                "claimed_fingerprint": stamped_fp,
                "claimed_version": decision_payload.get("policy_version", 0),
            })
            return
        if not self._versions:
            return
        if stamped_fp:
            version = self._fingerprints[stamped_fp]
            decided_at = record["entries"][EntryType.PDP_OUT].get(
                "observed_at", self.sim.now)
            in_force = self._version_in_force_at(decided_at) or self._versions[-1]
            skew = in_force.version - version.version
            if skew > self.policy_staleness_bound:
                # Honest propagation cannot lag this far: the replica is
                # replaying a long-superseded policy.
                self.policy_violations_reported += 1
                self._submit_violation(correlation_id, "policy-violation", {
                    "reason": "staleness-bound-exceeded",
                    "stamped_version": version.version,
                    "in_force_version": in_force.version,
                    "skew": skew,
                    "bound": self.policy_staleness_bound,
                })
                return
            if skew > 0:
                # Honest churn: the decision trailed a publish within the
                # bound.  Audit it against the policy it was made under.
                self.churn_observed += 1
        else:
            # Unstamped decision (no policy published, or a fabricated
            # decision that never saw an evaluator): check the head.
            version = self._versions[-1]
        oracle = self._oracle_for(version)
        expected = oracle.expected_decision(request_payload["content"])
        if expected != observed:
            self.violations_reported += 1
            self._submit_violation(correlation_id, "incorrect-decision", {
                "expected": expected,
                "observed": observed,
                "policy_version": version.version,
            })

    # -- churn-claim auditing -----------------------------------------------------

    def _audit_churn(self, correlation_id: str) -> None:
        """Verify every policy-version claim behind a churn classification.

        Each churn-classified decision payload must (a) name a fingerprint
        our policy history contains and (b) carry exactly the decision
        that version entails for the request.  A claim that fails either
        test is reported as an on-chain ``policy-violation`` — the
        downgrade from mismatch/equivocation to churn is never taken on
        the attacker's word.
        """
        if correlation_id in self._churn_refuted:
            self._churn_pending.pop(correlation_id, None)
            return
        records = self.node.chain.state_of(CONTRACT_NAME)["records"]
        record = records.get(correlation_id)
        if record is None:
            # Pruned by retention (or reorged away): drop all bookkeeping,
            # including any in-flight grace entry.
            self._churn_pending.pop(correlation_id, None)
            self._unknown_since.pop(f"{correlation_id}#churn", None)
            return
        request_payload = (self._read_plaintext(record, EntryType.PDP_IN)
                           or self._read_plaintext(record, EntryType.PEP_IN))
        if request_payload is None:
            # Request leg not on chain yet; the sweep retries.
            self.unresolved += 1
            return
        # A claim is the stored metadata (declared stamp + ciphertext) of
        # every churn-classified decision report: the recorded
        # pdp-out/pep-out entries plus the contract's kept churn_reports.
        claims = []
        for entry_type in (EntryType.PDP_OUT, EntryType.PEP_OUT):
            entry = record["entries"].get(entry_type)
            if entry is not None and entry.get("policy_fingerprint"):
                claims.append((entry_type, entry))
        for report in record.get("churn_reports", []):
            if report.get("policy_fingerprint"):
                claims.append((report["entry_type"], report))
        grace_key = f"{correlation_id}#churn"
        waiting = False
        for entry_type, meta in claims:
            declared = meta["policy_fingerprint"]
            payload = self._decrypt_entry(meta)
            if payload is None or payload.get("policy_fingerprint") != declared:
                # Undecryptable, or the committed payload contradicts the
                # stamp declared to the contract: the claim cannot be
                # verified, so the downgrade is refused, not granted.
                self.policy_violations_reported += 1
                self._churn_refuted.add(correlation_id)
                self._submit_violation(correlation_id, "policy-violation", {
                    "reason": "churn-claim-unverifiable",
                    "entry_type": entry_type,
                    "claimed_fingerprint": declared,
                })
                break
            version = self._fingerprints.get(declared)
            if version is None:
                # Possibly our own replica lagging: wait out the grace.
                first_failed = self._unknown_since.setdefault(
                    grace_key, self.sim.now)
                if self.sim.now - first_failed < self.unknown_policy_grace:
                    waiting = True
                    continue
                self.policy_violations_reported += 1
                self._churn_refuted.add(correlation_id)
                self._submit_violation(correlation_id, "policy-violation", {
                    "reason": "churn-claims-unknown-fingerprint",
                    "entry_type": entry_type,
                    "claimed_fingerprint": declared,
                    "claimed_version": payload.get("policy_version", 0),
                })
                break
            expected = self._oracle_for(version).expected_decision(
                request_payload["content"])
            if expected != payload["decision"]:
                self.policy_violations_reported += 1
                self._churn_refuted.add(correlation_id)
                self._submit_violation(correlation_id, "policy-violation", {
                    "reason": "churn-claim-refuted",
                    "entry_type": entry_type,
                    "expected": expected,
                    "observed": payload["decision"],
                    "policy_version": version.version,
                })
                break
        else:
            if waiting:
                self.unresolved += 1
                return
        self._churn_pending.pop(correlation_id, None)
        self._unknown_since.pop(grace_key, None)
        self.churn_audits += 1

    def _submit_violation(self, correlation_id: str, kind: str,
                          details: dict) -> None:
        tracer = self.network.telemetry
        if tracer is not None:
            tracer.instant("analyser.violation", self.address,
                           context=tracer.context_for(correlation_id),
                           category="monitor",
                           attrs={"kind": kind,
                                  "reason": details.get("reason", "")})
        self._seq += 1
        tx = Transaction(
            sender=self.address,
            contract=CONTRACT_NAME,
            method="report_violation",
            args={
                "correlation_id": correlation_id,
                "kind": kind,
                "details": details,
            },
            seq=self._seq,
        ).sign(self.signing_key)
        self.node.submit_transaction(tx)

    # -- sweeping (periodic re-check of unresolved correlations) ---------------------

    def sweep(self) -> int:
        """Re-examine pending correlations whose decision leg is on-chain.

        Covers orderings where the request leg landed after the decision
        leg, unknown-fingerprint decisions waiting out the grace window,
        and churn claims whose audit could not complete yet.  Walks the
        pending-correlation indices — O(pending), not O(records) — so
        steady-state sweeps over a mostly-verified chain cost nothing.
        Returns the number of decisions checked.
        """
        tracer = self.network.telemetry
        if tracer is None:
            return self._sweep()
        with tracer.span("analyser.sweep", self.address, parent=None,
                         category="background") as span:
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
                # Pruned by retention (or reorged away): nothing left to
                # check against, stop re-visiting it.
                self._pending.pop(correlation_id, None)
                self._unknown_since.pop(correlation_id, None)
                continue
            if EntryType.PDP_OUT in record["entries"]:
                self._check_decision(correlation_id)
        return self.checked - before
