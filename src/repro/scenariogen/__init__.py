"""Parameterised, seeded scenario generation.

Scenarios are *data*.  A :class:`~repro.scenariogen.spec.ScenarioSpec`
describes a federation declaratively — shape, roles, service-class
catalogue (or a random-tree recipe), arrival process, churn and attack
mix — and :func:`~repro.scenariogen.generate.generate_scenario` compiles
it into the :class:`~repro.workload.scenarios.Scenario` the harness and
benchmarks consume, with validity guarantees (every role reachable,
every class readable, a permit path per tenant) and full
seed-reproducibility.  The ten shipped federations are the specs in
:data:`~repro.scenariogen.presets.PRESET_SPECS`.  See
``docs/scenariogen.md``.
"""

from repro.scenariogen.spec import (
    ArrivalSpec,
    ChurnSpec,
    FederationShape,
    ObligationSpec,
    PopulationSpec,
    RuleSpec,
    ScenarioSpec,
    ServiceClassSpec,
    TreeSpec,
    spec_from_json,
    spec_to_json,
)
from repro.scenariogen.generate import (
    build_stack_from_spec,
    default_attacks,
    generate_scenario,
    validity_report,
)
from repro.scenariogen.presets import PRESET_SPECS, preset_spec

__all__ = [
    "ArrivalSpec",
    "ChurnSpec",
    "FederationShape",
    "ObligationSpec",
    "PopulationSpec",
    "RuleSpec",
    "ScenarioSpec",
    "ServiceClassSpec",
    "TreeSpec",
    "PRESET_SPECS",
    "build_stack_from_spec",
    "default_attacks",
    "generate_scenario",
    "preset_spec",
    "spec_from_json",
    "spec_to_json",
    "validity_report",
]
