"""Detection-quality aggregation for attack experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.threats.adversary import AttackRecord


@dataclass(frozen=True)
class DetectionSummary:
    """Aggregate over a set of attack records."""

    attacks: int
    detected: int
    detection_rate: float
    mean_latency: Optional[float]
    p95_latency: Optional[float]
    false_positives: int


class DetectionScorer:
    """Accumulates attack records (possibly across runs) into a summary."""

    def __init__(self) -> None:
        self._records: list[AttackRecord] = []
        self._false_positives = 0

    def add_all(self, records: list[AttackRecord], false_positives: int = 0) -> None:
        self._records.extend(records)
        self._false_positives += false_positives

    def summary(self) -> DetectionSummary:
        detected = [record for record in self._records if record.detected]
        latencies = sorted(record.detection_latency for record in detected
                           if record.detection_latency is not None)
        mean_latency = sum(latencies) / len(latencies) if latencies else None
        p95 = None
        if latencies:
            index = min(len(latencies) - 1, int(0.95 * (len(latencies) - 1) + 0.5))
            p95 = latencies[index]
        return DetectionSummary(
            attacks=len(self._records),
            detected=len(detected),
            detection_rate=(len(detected) / len(self._records)
                            if self._records else 0.0),
            mean_latency=mean_latency,
            p95_latency=p95,
            false_positives=self._false_positives,
        )
