"""Light probe consumers: per-tenant auditors holding headers + receipts.

A :class:`LightProbeConsumer` is the paper's "any federation party can
audit access decisions" made cheap: it watches its own PEP's enforced
decisions (via the ``on_enforce`` hook), asks a full node for a decision
receipt per correlation (``bc_proof_request``), and verifies each receipt
offline against its :class:`~repro.lightclient.headers.HeaderClient`'s
validated header chain.  It never holds a block body or contract state.

Receipts for transactions that are not yet mined come back ``found:
False`` and are retried on the next :meth:`sweep`; receipts whose block
the header client has not synced yet (or that sit shallower than
``min_confirmations``) are parked and re-verified once the headers catch
up — so under partitions and node crashes the consumer simply lags and
recovers, which is exactly what the E16 chaos arm pins.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.common.errors import ValidationError
from repro.crypto.symmetric import SymmetricKey
from repro.drams.logs import EntryType
from repro.lightclient.headers import HeaderClient
from repro.lightclient.receipts import DecisionReceipt
from repro.lightclient.sideband import SidebandHost
from repro.simnet.network import Message, Network


class LightProbeConsumer(SidebandHost):
    """An auditor that verifies its tenant's decisions from headers alone."""

    def __init__(self, network: Network, address: str,
                 header_client: HeaderClient, proof_server: str,
                 federation_key: Optional[SymmetricKey] = None,
                 entry_type: str = EntryType.PDP_OUT,
                 min_confirmations: int = 1) -> None:
        super().__init__(network, address)
        self.header_client = header_client
        self.proof_server = proof_server
        self.federation_key = federation_key
        self.entry_type = entry_type
        self.min_confirmations = min_confirmations
        #: Accepted receipts by correlation id — the auditor's archive.
        self.receipts: dict[str, DecisionReceipt] = {}
        #: Correlations awaiting a servable proof (tx not mined yet, or
        #: the reply got lost to a partition/crash).
        self._awaiting: dict[str, None] = {}
        #: Fetched receipts waiting for header sync / confirmation depth.
        self._parked: dict[str, DecisionReceipt] = {}
        #: Sweeps a parked receipt's block has spent off the verified
        #: branch; after two it is treated as reorged away and re-fetched.
        self._parked_age: dict[str, int] = {}
        self.receipts_requested = 0
        self.receipts_accepted = 0
        self.receipts_rejected = 0
        #: ``(correlation_id, reason)`` for every rejection (bench audit).
        self.rejections: list[tuple[str, str]] = []
        #: Hash evaluations spent verifying receipts (excludes the header
        #: client's own sync cost, reported separately).
        self.hashes_verified = 0

    # -- wiring ----------------------------------------------------------------

    def attach_pep(self, pep: PolicyEnforcementPoint) -> None:
        """Audit every decision this PEP enforces, as it enforces it."""
        pep.on_enforce.append(
            lambda request, decision: self.watch(request.correlation()))

    # -- audit flow ------------------------------------------------------------

    def watch(self, correlation_id: str) -> None:
        """Queue a correlation for receipt fetch + verification."""
        if correlation_id in self.receipts or correlation_id in self._parked:
            return
        if correlation_id not in self._awaiting:
            tracer = self.network.telemetry
            if tracer is not None:
                # Sideband leg of the decision trace: watch → accept/reject.
                tracer.open_span(("lc.audit", self.address, correlation_id),
                                 "lc.audit", self.address,
                                 parent=tracer.context_for(correlation_id),
                                 category="sideband")
            self._awaiting[correlation_id] = None
            self._fetch(correlation_id)

    def sweep(self) -> None:
        """Retry unanswered fetches and re-verify parked receipts."""
        for correlation_id, receipt in list(self._parked.items()):
            self._verify(correlation_id, receipt)
        for correlation_id, receipt in list(self._parked.items()):
            if self.header_client.header_for(receipt.block_hash) is not None:
                continue  # just shallow; confirmations will accrue
            age = self._parked_age.get(correlation_id, 0) + 1
            if age >= 2:
                # The receipt's block stayed off the verified branch for
                # two sweeps: treat it as reorged away and re-fetch — the
                # server serves the winning branch's inclusion proof.
                self._parked.pop(correlation_id, None)
                self._parked_age.pop(correlation_id, None)
                self._awaiting[correlation_id] = None
            else:
                self._parked_age[correlation_id] = age
        for correlation_id in list(self._awaiting):
            self._fetch(correlation_id)

    @property
    def outstanding(self) -> int:
        """Watched correlations not yet accepted or rejected."""
        return len(self._awaiting) + len(self._parked)

    def _fetch(self, correlation_id: str) -> None:
        self.receipts_requested += 1
        self.send(self.proof_server, "bc_proof_request", {
            "request_id": correlation_id,
            "correlation_id": correlation_id,
            "entry_type": self.entry_type,
        })

    def _decode_proof(self, payload: Any) -> dict:
        """The envelope only; evidence that does not decode rejects its receipt instead."""
        if isinstance(payload, dict) and isinstance(payload.get("request_id", ""), str):
            return payload
        raise ValidationError("bc_proof reply is not an object naming its request")

    def _handle_proof(self, message: Message, payload: dict) -> None:
        correlation_id = payload.get("request_id", "")
        if not correlation_id or correlation_id not in self._awaiting:
            return
        if not payload.get("found"):
            return  # not mined yet; the sweep retries
        try:
            receipt = DecisionReceipt.from_dict(
                {**payload, "correlation_id": correlation_id, "entry_type": self.entry_type}
            )
        except ValidationError:
            self._reject(correlation_id, "malformed-proof-reply")
            return
        self._awaiting.pop(correlation_id, None)
        self._verify(correlation_id, receipt)

    RECEIVES = {"bc_proof": (_decode_proof, _handle_proof)}

    def _verify(self, correlation_id: str, receipt: DecisionReceipt) -> None:
        trusted = self.header_client.header_for(receipt.block_hash)
        if (trusted is None or self.header_client.confirmations_of(
                receipt.block_hash) < self.min_confirmations):
            # Headers lag the served chain (or the block was reorged
            # away); park and re-verify after the next sync.  A reorged
            # block's receipt re-fetches via the awaiting path once the
            # park ages out — the server will serve the winning branch.
            self._parked[correlation_id] = receipt
            if trusted is not None:
                self._parked_age.pop(correlation_id, None)
            return
        self._parked.pop(correlation_id, None)
        self._parked_age.pop(correlation_id, None)
        result = receipt.verify(trusted, federation_key=self.federation_key)
        self.hashes_verified += result.hashes_verified
        if result.ok:
            self.receipts[correlation_id] = receipt
            self.receipts_accepted += 1
            tracer = self.network.telemetry
            if tracer is not None:
                tracer.close_span(("lc.audit", self.address, correlation_id),
                                  "accepted", strict=False)
        else:
            self._reject(correlation_id, result.reason)

    def _reject(self, correlation_id: str, reason: str) -> None:
        self._awaiting.pop(correlation_id, None)
        self._parked.pop(correlation_id, None)
        self._parked_age.pop(correlation_id, None)
        self.receipts_rejected += 1
        self.rejections.append((correlation_id, reason))
        tracer = self.network.telemetry
        if tracer is not None:
            tracer.close_span(("lc.audit", self.address, correlation_id),
                              f"rejected:{reason}", strict=False)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "requested": self.receipts_requested,
            "accepted": self.receipts_accepted,
            "rejected": self.receipts_rejected,
            "outstanding": self.outstanding,
            "hashes_verified": self.hashes_verified,
            "headers_validated": self.header_client.headers_validated,
            "header_height": self.header_client.height,
            "header_reorgs": self.header_client.reorgs,
        }
