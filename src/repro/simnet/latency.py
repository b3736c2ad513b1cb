"""Link latency models.

A cloud federation spans tenants in different clouds: intra-tenant traffic
is LAN-like (sub-millisecond), cross-tenant traffic is WAN-like (tens of
milliseconds, heavy-tailed).  Latency models are pluggable so experiments
can sweep network conditions; all sampling is driven by the experiment's
seeded RNG stream.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.common.rng import SeededRng


class LatencyModel(ABC):
    """Samples one-way message delays, in seconds."""

    @abstractmethod
    def sample(self, rng: SeededRng, size_bytes: int = 0) -> float:
        """Return a delay for a message of ``size_bytes`` payload bytes."""

    @abstractmethod
    def describe(self) -> str:
        """A short human-readable form, e.g. ``const(5.00ms)``."""


class ConstantLatency(LatencyModel):
    """Fixed propagation delay plus linear serialization cost.

    ``bandwidth_bps`` models the size-dependent component the paper's "log
    size" discussion hinges on: bigger logs take longer on the wire and in
    block bodies.
    """

    def __init__(self, delay: float, bandwidth_bps: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay
        self.bandwidth_bps = bandwidth_bps

    def sample(self, rng: SeededRng, size_bytes: int = 0) -> float:
        transfer = (size_bytes * 8 / self.bandwidth_bps) if self.bandwidth_bps > 0 else 0.0
        return self.delay + transfer

    def describe(self) -> str:
        return f"const({self.delay * 1000:.2f}ms)"


class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high]`` plus optional bandwidth term."""

    def __init__(self, low: float, high: float, bandwidth_bps: float = 0.0) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got {low}, {high}")
        self.low = low
        self.high = high
        self.bandwidth_bps = bandwidth_bps

    def sample(self, rng: SeededRng, size_bytes: int = 0) -> float:
        transfer = (size_bytes * 8 / self.bandwidth_bps) if self.bandwidth_bps > 0 else 0.0
        return rng.uniform(self.low, self.high) + transfer

    def describe(self) -> str:
        return f"uniform({self.low * 1000:.2f}..{self.high * 1000:.2f}ms)"


class LognormalLatency(LatencyModel):
    """Heavy-tailed delay typical of WAN paths between federated clouds.

    Parameterised by the *median* delay and a shape sigma; the underlying
    normal is ``N(ln(median), sigma)``.
    """

    def __init__(self, median: float, sigma: float = 0.3, bandwidth_bps: float = 0.0) -> None:
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)
        self.bandwidth_bps = bandwidth_bps

    def sample(self, rng: SeededRng, size_bytes: int = 0) -> float:
        transfer = (size_bytes * 8 / self.bandwidth_bps) if self.bandwidth_bps > 0 else 0.0
        return math.exp(rng.gauss(self._mu, self.sigma)) + transfer

    def describe(self) -> str:
        return f"lognormal(median={self.median * 1000:.2f}ms, sigma={self.sigma})"


def LanProfile() -> LatencyModel:
    """Intra-tenant link: ~0.3 ms median, gigabit bandwidth."""
    return LognormalLatency(median=0.0003, sigma=0.2, bandwidth_bps=1e9)


def WanProfile(bandwidth_bps: float = 1e8) -> LatencyModel:
    """Cross-tenant (cross-cloud) link: ~25 ms median, heavy tail."""
    return LognormalLatency(median=0.025, sigma=0.35, bandwidth_bps=bandwidth_bps)
