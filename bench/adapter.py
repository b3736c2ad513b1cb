"""Every program symbol the benchmark touches, listed once.

The workloads reach the program only through these public names and the
public attributes of the objects they return; the span recorder's wrap
targets are the second list (``bench/tracing.py``).  A PR that renames a
symbol here needs its own benchmark PR: it alters no other code, claims
no gain and re-measures the baseline (see ``bench/README.md``).

Importing this module imports ``repro``, so only the child process does
it, after its set-up clock has started.
"""

from dataclasses import replace

from repro.accesscontrol.pep import RetryBackoff
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.analysis.semantics import DecisionOracle
from repro.blockchain.config import BlockchainConfig
from repro.common.ids import reset_id_counter
from repro.drams.system import DramsConfig
from repro.faults import FaultPlan, crash, partition
from repro.policydist import ReplicatedPrpPlane
from repro.scenariogen import (
    ArrivalSpec,
    FederationShape,
    build_stack_from_spec,
    default_attacks,
    preset_spec,
)
from repro.threats import ATTACK_CATALOGUE, Adversary

__all__ = [
    "ATTACK_CATALOGUE",
    "Adversary",
    "ArrivalSpec",
    "BlockchainConfig",
    "DecisionOracle",
    "DramsConfig",
    "FaultPlan",
    "FederationShape",
    "ReplicatedPrpPlane",
    "RetryBackoff",
    "ShardedPdpPlane",
    "build_stack_from_spec",
    "crash",
    "default_attacks",
    "partition",
    "preset_spec",
    "replace",
    "reset_id_counter",
]
