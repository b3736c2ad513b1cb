"""Baseline monitors for comparison experiments.

:class:`CentralizedMonitor` runs DRAMS's own rules (:mod:`repro.drams.rules`)
over a single log collector with a classical database in the infrastructure
tenant — no blockchain, no replication.  It detects the same attacks
(``tests/test_monitor_parity.py``); the difference the paper argues for is
*resilience*: compromising the one collector host silences the baseline
entirely (and destroys the evidence), whereas DRAMS keeps detecting as long
as the chain's integrity holds.  Experiment E6 quantifies exactly that gap.
"""

from repro.baselines.central import (
    CentralizedMonitor,
    attach_centralized_monitoring,
)

__all__ = [
    "CentralizedMonitor",
    "attach_centralized_monitoring",
]
