"""Constant-memory windowed run metrics: the stack's one outcome store.

Every enforced outcome of a :class:`~repro.harness.MonitoredFederation`
folds into its :class:`WindowedMetrics`, whether or not the issuance also
keeps the :class:`EnforcedAccess` itself (a million-request stream cannot).
Each outcome lands in O(1) cumulative aggregates plus a bounded ring of
per-window buckets (simulated-time windows), so a run's footprint is
independent of its length while the recent-load shape stays observable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass
class _Window:
    start: float
    count: int = 0
    grants: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0


@dataclass
class WindowedMetrics:
    """Streaming aggregates: cumulative totals + a bounded window ring."""

    #: Width of one window, in simulated seconds.
    WINDOW_SECONDS: ClassVar[float] = 1.0
    #: Windows retained; older ones fall off the ring.
    MAX_WINDOWS: ClassVar[int] = 64

    count: int = 0
    grants: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    latency_min: float = float("inf")
    _windows: deque = field(default_factory=deque, repr=False)

    def observe(self, at: float, latency: float, granted: bool) -> None:
        """Fold one enforced outcome in; ``at`` is simulated time."""
        self.count += 1
        if granted:
            self.grants += 1
        self.latency_sum += latency
        if latency > self.latency_max:
            self.latency_max = latency
        if latency < self.latency_min:
            self.latency_min = latency
        start = (at // self.WINDOW_SECONDS) * self.WINDOW_SECONDS
        if not self._windows or self._windows[-1].start != start:
            self._windows.append(_Window(start=start))
            while len(self._windows) > self.MAX_WINDOWS:
                self._windows.popleft()
        window = self._windows[-1]
        window.count += 1
        if granted:
            window.grants += 1
        window.latency_sum += latency
        if latency > window.latency_max:
            window.latency_max = latency

    def grant_rate(self) -> float:
        return self.grants / self.count if self.count else 0.0

    def mean_latency(self) -> float:
        return self.latency_sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """One dict: cumulative totals plus the retained window series."""
        return {
            "count": self.count,
            "grants": self.grants,
            "grant_rate": round(self.grant_rate(), 6),
            "latency_mean": self.mean_latency(),
            "latency_max": self.latency_max,
            "latency_min": self.latency_min if self.count else 0.0,
            "windows": [
                {
                    "start": window.start,
                    "count": window.count,
                    "grants": window.grants,
                    "latency_mean": (
                        window.latency_sum / window.count if window.count else 0.0
                    ),
                    "latency_max": window.latency_max,
                }
                for window in self._windows
            ],
        }
