"""Discrete-event simulation substrate.

The paper evaluates DRAMS on a FaaS cloud testbed; we substitute a
deterministic discrete-event simulator.  All distributed components (PEPs,
the PDP, logging interfaces, blockchain nodes, the analyser) are
:class:`Host` objects attached to a :class:`Network`; message delivery is an
event scheduled after a latency sampled from the link's
:class:`LatencyModel`.  The same code paths run whether the experiment is a
micro test or a thousand-request benchmark, and every run is reproducible
from ``(seed, topology, workload)``.
"""

from repro.simnet.simulator import Simulator, Event
from repro.simnet.latency import (
    LatencyModel,
    ConstantLatency,
    LognormalLatency,
    WanProfile,
    LanProfile,
)
from repro.simnet.network import Network, Host, Message, NetworkStats

__all__ = [
    "Simulator",
    "Event",
    "LatencyModel",
    "ConstantLatency",
    "LognormalLatency",
    "WanProfile",
    "LanProfile",
    "Network",
    "Host",
    "Message",
    "NetworkStats",
]
