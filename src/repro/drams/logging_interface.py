"""The Logging Interface (LI).

One per tenant.  It is the bridge between off-chain probes and the
blockchain:

- **storing**: receives ``drams_log`` messages from agents, encrypts the
  payload under the federation key K (on-chain data is visible to every
  participant), attaches the plaintext's hash commitment, signs the whole
  thing as a transaction and submits it through the tenant's blockchain
  node;
- **alerting**: subscribes to the monitor contract's events; ``Alert``
  events are decoded, deduplicated and pushed to the local alert handlers
  (and the federation-wide :class:`~repro.drams.alerts.AlertBus`).

Key handling: when a :class:`~repro.crypto.tpm.SimulatedTpm` is supplied,
K is *sealed* to the LI's measured state and unsealed per use — a tampered
LI loses the key, which is the mitigation sketched in the paper's System
Integrity discussion.  Without a TPM the LI holds K itself.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.blockchain.contracts import ContractEvent
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.errors import CryptoError
from repro.common.serialization import from_json
from repro.crypto.signatures import SigningKey
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.crypto.tpm import SimulatedTpm
from repro.drams.alerts import Alert, AlertType
from repro.drams.contract import CONTRACT_NAME, EVENT_ALERT
from repro.drams.logs import LogEntry
from repro.drams.rules import declared_stamp
from repro.simnet.network import Host, Message, Network

FEDERATION_KEY_NAME = "federation-K"


class LoggingInterface(Host):
    """Per-tenant logging endpoint and alert gateway."""

    def __init__(
        self,
        network: Network,
        address: str,
        tenant: str,
        node: BlockchainNode,
        signing_key: SigningKey,
        federation_key: SymmetricKey,
        tpm: Optional[SimulatedTpm] = None,
    ) -> None:
        super().__init__(network, address)
        self.tenant = tenant
        self.node = node
        self.signing_key = signing_key
        self.tpm = tpm
        #: K in the clear only when no TPM seals it.
        self._plain_key = federation_key if tpm is None else None
        if tpm is not None:
            tpm.seal(FEDERATION_KEY_NAME, federation_key)
        self.alert_handlers: list[Callable[[Alert], None]] = []
        self.logs_submitted = 0
        self.logs_rejected = 0
        self.key_failures = 0
        self._seq = 0
        self._seen_alerts: set[tuple[str, str]] = set()
        self._pending_commit: dict[str, float] = {}
        self.commit_latencies: list[float] = []
        #: Attack injection point: rewrites a log entry before encryption
        #: (a compromised LI storing falsified logs).
        self.tamper_interceptor: Optional[Callable[[LogEntry], LogEntry]] = None
        node.chain.subscribe_events(self._on_contract_event)
        node.on_head_change(lambda _head: self._check_commits())

    # -- key access -----------------------------------------------------------

    def _federation_key(self) -> SymmetricKey:
        """Fetch K, via TPM unseal when so deployed (fails after tampering)."""
        if self.tpm is not None:
            key = self.tpm.unseal(FEDERATION_KEY_NAME)
            if not isinstance(key, SymmetricKey):  # pragma: no cover - defensive
                raise CryptoError("sealed object is not the federation key")
            return key
        return self._plain_key

    # -- log ingestion ------------------------------------------------------------

    def _handle_log(self, message: Message, entry: LogEntry) -> None:
        self.store_entry(entry)

    RECEIVES = {"drams_log": (LogEntry, _handle_log)}

    def store_entry(self, entry: LogEntry) -> Optional[str]:
        """Encrypt, commit and submit a log entry; returns the tx id."""
        tracer = self.network.telemetry
        if tracer is None:
            return self._store_entry(entry)
        # Message deliveries arrive with the sender's context active;
        # direct calls re-join the decision trace via the correlation id.
        parent = tracer.current or tracer.context_for(entry.correlation_id)
        span = tracer.begin(
            "li.record_log", self.address, parent=parent, attrs={"entry_type": entry.entry_type}
        )
        with tracer.activate(span.context):
            tx_id = self._store_entry(entry)
        tracer.end(span, "ok" if tx_id is not None else "rejected")
        return tx_id

    def _store_entry(self, entry: LogEntry) -> Optional[str]:
        if self.tamper_interceptor is not None:
            entry = self.tamper_interceptor(entry)
        try:
            key = self._federation_key()
        except CryptoError:
            # TPM refused to unseal: the platform measurement changed.
            self.key_failures += 1
            return None
        # One canonical encoding serves encryption and the hash commitment;
        # the synthetic nonce keeps runs reproducible under a fixed seed.
        payload_bytes = entry.canonical_payload()
        ciphertext = key.encrypt(payload_bytes, nonce=key.derive_nonce(payload_bytes))
        args = {
            **entry.envelope(),
            "payload_hash": entry.payload_hash(),
            "ciphertext": ciphertext.to_dict(),
            # Decision entries carry a policy provenance stamp; surface it in
            # the transaction so the contract can classify a conflicting
            # report as policy churn (skewed PRP replicas) vs equivocation
            # without decrypting anything.
            **declared_stamp(entry.payload),
        }
        tx = self._signed_tx("record_log", args)
        if not self.node.submit_transaction(tx):
            self.logs_rejected += 1
            return None
        self.logs_submitted += 1
        self._pending_commit[tx.tx_id] = self.sim.now
        tracer = self.network.telemetry
        if tracer is not None:
            # Open until this LI observes the transaction final — the
            # "chain wait" hop of the decision's critical path.
            tracer.open_span(
                ("chain.commit", self.address, tx.tx_id),
                "chain.commit",
                self.address,
                category="chain",
            )
        return tx.tx_id

    def _signed_tx(self, method: str, args: dict) -> Transaction:
        """This LI's next call to the monitor contract, signed."""
        self._seq += 1
        tx = Transaction(
            sender=self.address,
            contract=CONTRACT_NAME,
            method=method,
            args=args,
            seq=self._seq,
            tx_id=self.sim.new_id("tx"),
        )
        return tx.sign(self.signing_key)

    def submit_tick(self) -> Optional[str]:
        """Submit a timeout-sweep transaction to the monitor contract."""
        tx = self._signed_tx("tick", {})
        if not self.node.submit_transaction(tx):
            return None
        return tx.tx_id

    # -- commit latency tracking ---------------------------------------------------

    def _check_commits(self) -> None:
        """On each new head, settle pending submissions that became final."""
        done = [tx_id for tx_id in self._pending_commit if self.node.chain.is_final(tx_id)]
        tracer = self.network.telemetry
        for tx_id in done:
            submitted = self._pending_commit.pop(tx_id)
            self.commit_latencies.append(self.sim.now - submitted)
            if tracer is not None:
                # Non-strict: the span only exists for entries stored
                # while tracing was attached.
                tracer.close_span(("chain.commit", self.address, tx_id), "final", strict=False)

    # -- alert delivery --------------------------------------------------------------

    def on_alert(self, handler: Callable[[Alert], None]) -> None:
        self.alert_handlers.append(handler)

    def _on_contract_event(self, event: ContractEvent, block_hash: str) -> None:
        if event.contract != CONTRACT_NAME or event.name != EVENT_ALERT:
            return
        payload = event.payload
        key = (payload["alert_type"], payload["correlation_id"])
        if key in self._seen_alerts:
            return
        self._seen_alerts.add(key)
        tracer = self.network.telemetry
        if tracer is not None:
            tracer.instant(
                "alert",
                self.address,
                context=tracer.context_for(payload["correlation_id"]),
                category="alert",
                attrs={"alert_type": payload["alert_type"]},
            )
        alert = Alert(
            alert_type=AlertType(payload["alert_type"]),
            correlation_id=payload["correlation_id"],
            details=dict(payload.get("details", {})),
            block_height=event.block_height,
            raised_at=self.sim.now,
        )
        for handler in self.alert_handlers:
            handler(alert)

    # -- audit reads -----------------------------------------------------------------

    def read_log_plaintext(self, correlation_id: str, entry_type: str) -> Optional[dict]:
        """Decrypt a stored log payload from the replicated contract state.

        Used by auditors (and the Analyser); returns None when the entry is
        absent.  Raises :class:`CryptoError` if the ciphertext was tampered
        with (MAC failure).
        """
        records = self.node.chain.state_of(CONTRACT_NAME)["records"]
        record = records.get(correlation_id)
        if record is None:
            return None
        entry = record["entries"].get(entry_type)
        if entry is None or "ciphertext" not in entry:
            return None
        blob = EncryptedBlob.from_dict(entry["ciphertext"])
        plaintext = self._federation_key().decrypt(blob)
        return from_json(plaintext.decode("utf-8"))
