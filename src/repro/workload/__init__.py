"""Workload generation: subjects, resources, request streams, scenarios.

The paper motivates cloud federations with partner organisations sharing
data and services (the SUNFISH project's use cases are public-sector data
sharing).  This package provides:

- :mod:`repro.workload.generator` — seeded access-request generators with
  Zipf-skewed subject/resource popularity and Poisson arrivals (optionally
  diurnal: a sinusoidal arrival curve for the autoscaling experiments),
- :mod:`repro.workload.scenarios` — the ten shipped federation scenarios,
  compiled from :data:`repro.scenariogen.presets.PRESET_SPECS`
  (cross-border healthcare; ministry data sharing; high-fan-out IoT/edge;
  cross-cloud delegation; audit-burst compliance logging; federation-scale
  service sharing; mid-traffic policy churn; elastic-scale flash crowd;
  diurnal municipal e-services; partition-storm emergency management),
  each with its policy set, population and expected decision mix.
"""

from repro.workload.generator import WorkloadConfig, RequestGenerator, GeneratedRequest
from repro.workload.scenarios import (
    SCENARIO_FACTORIES,
    Scenario,
    all_scenarios,
    audit_burst_scenario,
    delegation_scenario,
    diurnal_scenario,
    elastic_scale_scenario,
    federation_scale_scenario,
    healthcare_scenario,
    iot_edge_scenario,
    ministry_scenario,
    partition_storm_scenario,
    policy_churn_scenario,
)

__all__ = [
    "WorkloadConfig",
    "RequestGenerator",
    "GeneratedRequest",
    "SCENARIO_FACTORIES",
    "Scenario",
    "all_scenarios",
    "audit_burst_scenario",
    "delegation_scenario",
    "diurnal_scenario",
    "elastic_scale_scenario",
    "federation_scale_scenario",
    "healthcare_scenario",
    "iot_edge_scenario",
    "ministry_scenario",
    "partition_storm_scenario",
    "policy_churn_scenario",
]
