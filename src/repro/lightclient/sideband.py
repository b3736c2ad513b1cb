"""Sideband hosts: observers that provably do not perturb the observed.

The differential acceptance bar for light clients is strict: the full
DRAMS stack must stay *bit-identical* — same decisions, same alerts, same
chain head hash — with auditors attached.  Two streams of the run could
betray that:

- **the latency RNG**: LAN/WAN profiles draw from the network's seeded
  stream per message, so one extra message shifts every later draw;
- **the run's id source**: message ids are minted by the run's
  ``Simulator.new_id``, the counter that also mints transaction ids,
  which are hashed into blocks.

:class:`SidebandHost` therefore namespaces its message ids from a local
counter, and :func:`sideband_link` pins its links to constant-latency
models (which sample nothing).  Service replies complete the loop by
deriving their ids from the request id (see
``BlockchainNode._handle_header_sync`` / ``_handle_proof_request``).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Host, Message, Network

#: One-way delay for light-client links: LAN-ish, deterministic.
SIDEBAND_DELAY = 0.002


class SidebandHost(Host):
    """A host whose traffic stays off the run's id and entropy streams."""

    def __init__(self, network: Network, address: str) -> None:
        super().__init__(network, address)
        self._msg_seq = 0

    def send(self, dst: str, kind: str, payload: Any,
             msg_id: Optional[str] = None) -> Optional[Message]:
        if msg_id is None:
            self._msg_seq += 1
            msg_id = f"lc:{self.address}:{self._msg_seq}"
        return super().send(dst, kind, payload, msg_id=msg_id)


def sideband_link(network: Network, client: str, server: str,
                  delay: float = SIDEBAND_DELAY) -> None:
    """Wire a constant-latency (RNG-free) link pair for sideband traffic."""
    network.set_latency(client, server, ConstantLatency(delay), symmetric=True)
