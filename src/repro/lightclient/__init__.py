"""Light-client monitoring: sublinear verifiers over the DRAMS chain.

Every Analyser and auditor in the reproduction used to be a full node —
it read the whole chain to check any one decision.  This package provides
the sublinear alternative the "millions of users" north star needs:

- :mod:`repro.lightclient.headers` — a :class:`HeaderClient` that tracks
  the chain as *headers only*, validating parent links, timestamps, the
  difficulty schedule and (in real PoW mode) the work target, with
  total-work fork choice over header batches served by any blockchain
  node (``bc_header_sync``);
- :mod:`repro.lightclient.receipts` — :class:`DecisionReceipt`, a
  self-contained evidence object (transaction, Merkle inclusion proof,
  block header, policy ``(version, fingerprint)`` stamp) that verifies
  *offline* against a single trusted header in O(log block-size) hashes;
- :mod:`repro.lightclient.consumer` — :class:`LightProbeConsumer`,
  per-tenant auditors holding headers + receipts only, fed by their own
  PEP's enforcement hook and the ``bc_proof_request`` service.

All light-client traffic is *sideband* (:mod:`repro.lightclient.sideband`):
constant-latency links and namespaced message ids, so attaching observers
leaves the monitored system bit-identical — ``tests/test_neutrality.py``
pins exactly that.
"""

from repro.lightclient.consumer import LightProbeConsumer
from repro.lightclient.headers import HeaderClient
from repro.lightclient.receipts import (
    DecisionReceipt,
    ReceiptVerification,
    monitor_tx_resolver,
)
from repro.lightclient.sideband import SidebandHost, sideband_link

__all__ = [
    "DecisionReceipt",
    "HeaderClient",
    "LightProbeConsumer",
    "ReceiptVerification",
    "SidebandHost",
    "monitor_tx_resolver",
    "sideband_link",
]
