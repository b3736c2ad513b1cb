"""Adversary: schedules attacks and scores their detection.

The adversary owns a set of attacks, injects them at chosen simulated
times, and afterwards reconciles the federation's alert bus against each
attack's declared expectations — producing the per-attack records the
detection benchmarks (experiment E6) aggregate into detection rate and
latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.drams.alerts import Alert, AlertType
from repro.drams.system import DramsSystem
from repro.threats.attacks import Attack


@dataclass
class AttackRecord:
    """Outcome of one injected attack."""

    attack_name: str
    injected_at: float
    expected_alerts: tuple[AlertType, ...]
    detected: bool = False
    detected_at: Optional[float] = None
    detection_latency: Optional[float] = None
    matched_alerts: list[Alert] = field(default_factory=list)


class Adversary:
    """Injects attacks into a running DRAMS deployment."""

    def __init__(self, drams: DramsSystem) -> None:
        self.drams = drams
        self.attacks: list[Attack] = []

    def launch(self, attack: Attack, at: Optional[float] = None) -> Attack:
        """Inject ``attack`` now, or schedule it for simulated time ``at``."""
        self.attacks.append(attack)
        if at is None:
            attack.inject(self.drams)
        else:
            self.drams.federation.sim.schedule_at(at, lambda: attack.inject(self.drams))
        return attack

    def lift_all(self) -> None:
        for attack in self.attacks:
            if attack.active:
                attack.lift(self.drams)

    # -- scoring ------------------------------------------------------------

    def record_for(self, attack: Attack) -> AttackRecord:
        """Score one attack against the alert bus."""
        record = AttackRecord(
            attack_name=attack.name,
            injected_at=attack.injected_at if attack.injected_at is not None else -1.0,
            expected_alerts=attack.expected_alerts,
        )
        if attack.injected_at is None:
            return record
        correlations = set(attack.affected_correlations)
        for alert in self.drams.alerts.all():
            if alert.alert_type not in attack.expected_alerts:
                continue
            if alert.raised_at < attack.injected_at:
                continue
            # Attribute by correlation when the attack tracked them;
            # component-level attacks (attestation) match by type alone.
            if correlations and alert.correlation_id not in correlations \
                    and alert.alert_type is not AlertType.ATTESTATION_FAILURE:
                continue
            record.matched_alerts.append(alert)
        if record.matched_alerts:
            record.detected = True
            record.detected_at = min(a.raised_at for a in record.matched_alerts)
            record.detection_latency = record.detected_at - record.injected_at
        return record

    def records(self) -> list[AttackRecord]:
        return [self.record_for(attack) for attack in self.attacks]

    def false_positives(self) -> list[Alert]:
        """Alerts not attributable to any injected attack."""
        claimed: set[tuple[str, str]] = set()
        for attack in self.attacks:
            record = self.record_for(attack)
            claimed.update(alert.key() for alert in record.matched_alerts)
        return [alert for alert in self.drams.alerts.all()
                if alert.key() not in claimed]
