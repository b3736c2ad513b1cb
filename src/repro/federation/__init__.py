"""Federation-as-a-Service (FaaS) topology model.

The paper deploys DRAMS on the access control system of a FaaS cloud
federation (Figure 1): member clouds contribute *tenants* (virtual spaces
of computing resources), an *infrastructure tenant* owned by all federation
clouds hosts the PDP/PRP and the Analyser in separate *sections*, and PEPs
sit at each tenant's edge.

This package models clouds, sections, tenants and the federation builder
that instantiates the simulated topology (network + hosts) the access
control and DRAMS components deploy onto.
"""

from repro.federation.model import Cloud, Section, Tenant, TenantKind
from repro.federation.federation import Federation, FederationConfig

__all__ = [
    "Cloud",
    "Section",
    "Tenant",
    "TenantKind",
    "Federation",
    "FederationConfig",
]
