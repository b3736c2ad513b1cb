"""Policy distribution plane: replicated PRPs with versioned propagation.

Turns the PRP singleton into a deployment choice, the way
:mod:`repro.accesscontrol.plane` did for the PDP: consumers (PDP shards,
the DRAMS Analyser) are wired against a :class:`PolicyDistributionPlane`,
and the plane decides whether they share one store
(:class:`SingleStorePlane`, bit-identical to the hard-wired topology) or
each own a propagation-fed replica (:class:`ReplicatedPrpPlane`) whose
version skew the monitoring pipeline observes and classifies.
"""

from repro.policydist.plane import PolicyDistributionPlane, ReplicatedPrpPlane, SingleStorePlane
from repro.policydist.replica import PrpReplica

__all__ = [
    "PolicyDistributionPlane",
    "ReplicatedPrpPlane",
    "SingleStorePlane",
    "PrpReplica",
]
