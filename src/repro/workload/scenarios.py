"""The shipped federation scenarios, compiled from their preset specs.

A :class:`Scenario` packages what one federation experiment needs: the
policy (document form), a workload configuration matched to its
population, the attribute domain the formal property checks range over,
and — for churn-style scenarios — follow-up policy generations to
publish mid-traffic.

The ten federations themselves are data:
:data:`repro.scenariogen.presets.PRESET_SPECS` states each one once, and
every ``*_scenario()`` factory below is
``generate_scenario(preset_spec(name))``.  ``docs/scenarios.md``
catalogues what each one stresses.  :func:`all_scenarios` returns one
instance of each, in preset order, for sweep-style tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.properties import AttributeDomain
from repro.workload.generator import WorkloadConfig


@dataclass
class Scenario:
    """A ready-to-run federation scenario."""

    name: str
    policy_document: dict
    workload: WorkloadConfig
    domain: AttributeDomain
    description: str = ""
    #: Follow-up policy generations to publish mid-traffic (churn-style
    #: scenarios); empty for scenarios whose policy never changes.
    policy_variants: tuple = ()


def _preset_factory(name: str) -> Callable[[], Scenario]:
    def factory() -> Scenario:
        # Imported here: repro.scenariogen compiles specs *into* this
        # module's Scenario, so it imports us at load time.
        from repro.scenariogen import generate_scenario, preset_spec

        return generate_scenario(preset_spec(name))

    # Parametrised suites take their test ids from the factory's name.
    factory.__name__ = factory.__qualname__ = f"{name.replace('-', '_')}_scenario"
    factory.__doc__ = f"The ``{name}`` federation, compiled from its preset spec."
    return factory


healthcare_scenario = _preset_factory("healthcare")
ministry_scenario = _preset_factory("ministry")
iot_edge_scenario = _preset_factory("iot-edge")
delegation_scenario = _preset_factory("delegation")
audit_burst_scenario = _preset_factory("audit-burst")
federation_scale_scenario = _preset_factory("federation-scale")
policy_churn_scenario = _preset_factory("policy-churn")
elastic_scale_scenario = _preset_factory("elastic-scale")
diurnal_scenario = _preset_factory("diurnal")
partition_storm_scenario = _preset_factory("partition-storm")

#: In ``PRESET_SPECS`` order (pinned by ``tests/test_scenariogen.py``).
SCENARIO_FACTORIES = (
    healthcare_scenario,
    ministry_scenario,
    iot_edge_scenario,
    delegation_scenario,
    audit_burst_scenario,
    federation_scale_scenario,
    policy_churn_scenario,
    elastic_scale_scenario,
    diurnal_scenario,
    partition_storm_scenario,
)


def all_scenarios() -> list[Scenario]:
    """One instance of every shipped scenario, in a stable order."""
    return [factory() for factory in SCENARIO_FACTORIES]
