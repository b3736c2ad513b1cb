"""Security alerts raised by DRAMS.

Each alert type maps to a threat from the paper's motivation:

- ``REQUEST_MISMATCH`` — the request the PDP evaluated differs from the
  one the PEP intercepted (request tampered in flight or by the PEP),
- ``DECISION_MISMATCH`` — the decision the PEP enforced differs from the
  one the PDP issued (decision tampered in flight or by the PEP),
- ``MISSING_LOG`` — a monitoring point never reported within the timeout
  window (component circumvented, probe suppressed, log dropped),
- ``EQUIVOCATION`` — two different payloads logged for the same monitoring
  point of the same request (replay or double-reporting),
- ``INCORRECT_DECISION`` — the Analyser re-derived a different decision
  from the policies in force (policy or evaluation process altered),
- ``ATTESTATION_FAILURE`` — a TPM-protected off-chain component no longer
  matches its sealed measurement (component integrity lost),
- ``POLICY_CHURN`` — two honest-looking reports for one monitoring point
  declare *different* policy fingerprints: a policy publish raced the
  request across PRP replicas (informational; the Analyser judges whether
  the skew was within the staleness bound),
- ``POLICY_VIOLATION`` — a decision's declared policy provenance is bad:
  the fingerprint is unknown to the policy history (tampered PRP replica)
  or the declared version trails the policy in force by more than the
  staleness bound (stale-policy replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class AlertType(Enum):
    """Classification of DRAMS security alerts."""

    REQUEST_MISMATCH = "request-mismatch"
    DECISION_MISMATCH = "decision-mismatch"
    MISSING_LOG = "missing-log"
    EQUIVOCATION = "equivocation"
    INCORRECT_DECISION = "incorrect-decision"
    ATTESTATION_FAILURE = "attestation-failure"
    POLICY_CHURN = "policy-churn"
    POLICY_VIOLATION = "policy-violation"


@dataclass(frozen=True)
class Alert:
    """One security alert as delivered to a Logging Interface."""

    alert_type: AlertType
    correlation_id: str
    details: dict
    block_height: int
    raised_at: float

    def key(self) -> tuple[str, str]:
        """Deduplication key: one alert of a type per request instance."""
        return (self.alert_type.value, self.correlation_id)


class AlertBus:
    """Collects alerts across the federation, deduplicated.

    The same contract event reaches every Logging Interface (each tenant's
    node applies the same block); the bus keeps the earliest delivery and
    exposes query helpers the detection experiments use.
    """

    def __init__(self) -> None:
        self._alerts: dict[tuple[str, str], Alert] = {}
        self.duplicate_deliveries = 0

    def publish(self, alert: Alert) -> bool:
        """Record an alert; returns False if it was a duplicate delivery."""
        key = alert.key()
        if key in self._alerts:
            self.duplicate_deliveries += 1
            return False
        self._alerts[key] = alert
        return True

    # -- queries -----------------------------------------------------------

    def all(self) -> list[Alert]:
        return sorted(self._alerts.values(), key=lambda a: (a.raised_at, a.key()))

    def of_type(self, alert_type: AlertType) -> list[Alert]:
        return [a for a in self.all() if a.alert_type is alert_type]

    def count(self, alert_type: Optional[AlertType] = None) -> int:
        if alert_type is None:
            return len(self._alerts)
        return len(self.of_type(alert_type))
