"""Structural model: clouds, sections, tenants.

Terminology follows the paper: a *section* is "a set of computing resources
belonging to a cloud"; a *tenant* is a virtual space of computing resources
underlying the federation; the *infrastructure tenant* is owned jointly by
all federation clouds and hosts the federation-wide services (PDP, policy
management, Analyser).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ValidationError


class TenantKind(Enum):
    """Member tenants host workloads; the infrastructure tenant hosts FaaS services."""

    MEMBER = "member"
    INFRASTRUCTURE = "infrastructure"


@dataclass
class Section:
    """A set of computing resources belonging to one cloud."""

    name: str
    cloud_name: str

    @property
    def qualified_name(self) -> str:
        return f"{self.cloud_name}/{self.name}"


@dataclass
class Cloud:
    """A federation member cloud contributing sections of resources."""

    name: str
    sections: list[Section] = field(default_factory=list)

    def add_section(self, name: str) -> Section:
        if any(section.name == name for section in self.sections):
            raise ValidationError(f"cloud {self.name}: duplicate section {name!r}")
        section = Section(name=name, cloud_name=self.name)
        self.sections.append(section)
        return section


@dataclass
class Tenant:
    """A virtual space of computing resources underlying the federation.

    ``sections`` lists the cloud sections backing the tenant; the
    infrastructure tenant spans sections of *every* member cloud (it is
    jointly owned), while member tenants typically map to one cloud.
    Host addresses of components deployed in the tenant are tracked so the
    builder can assign intra-tenant vs cross-tenant link latencies.
    """

    name: str
    kind: TenantKind
    sections: list[Section] = field(default_factory=list)
    host_addresses: list[str] = field(default_factory=list)

    def register_host(self, address: str) -> str:
        """Record that a component host lives in this tenant."""
        if address in self.host_addresses:
            raise ValidationError(f"tenant {self.name}: duplicate host {address!r}")
        self.host_addresses.append(address)
        return address

    def address(self, component: str) -> str:
        """Conventional address of a component in this tenant."""
        return f"{component}@{self.name}"
