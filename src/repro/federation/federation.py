"""Federation builder: turns a topology description into a simulated fabric.

Builds the Figure 1 substrate: a simulator, a network whose default links
are WAN-like (cross-cloud) with LAN-like overrides inside each tenant, the
member clouds with their sections, one member tenant per cloud (by default)
and the jointly-owned infrastructure tenant.  Access control and DRAMS
components deploy onto this substrate afterwards and register their host
addresses with their tenant, after which :meth:`Federation.finalize_topology`
installs the intra-tenant latency overrides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.simnet.latency import LanProfile, WanProfile
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.federation.model import Cloud, Tenant, TenantKind


@dataclass
class FederationConfig:
    """Topology and network parameters of a simulated federation."""

    name: str = "faas-federation"
    cloud_count: int = 2
    seed: int = 7
    wan_bandwidth_bps: float = 1e8

    def __post_init__(self) -> None:
        if self.cloud_count < 1:
            raise ValidationError("federation needs at least one cloud")


class Federation:
    """The instantiated federation: clouds, tenants and the network fabric."""

    def __init__(self, config: FederationConfig | None = None) -> None:
        self.config = config or FederationConfig()
        self.rng = SeededRng(self.config.seed, self.config.name)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            self.rng,
            default_latency=WanProfile(bandwidth_bps=self.config.wan_bandwidth_bps),
        )
        self.clouds: list[Cloud] = []
        self.tenants: dict[str, Tenant] = {}
        self._build_topology()

    def _build_topology(self) -> None:
        infra_tenant = Tenant(name="infrastructure", kind=TenantKind.INFRASTRUCTURE)
        for index in range(self.config.cloud_count):
            cloud = Cloud(name=f"cloud-{index + 1}")
            # Section 'i' of each cloud backs the infrastructure tenant
            # (jointly owned), a second section backs the member tenant.
            infra_tenant.sections.append(cloud.add_section("infra"))
            member_section = cloud.add_section("workload")
            tenant = Tenant(
                name=f"tenant-{index + 1}",
                kind=TenantKind.MEMBER,
                sections=[member_section],
            )
            self.clouds.append(cloud)
            self.tenants[tenant.name] = tenant
        self.tenants[infra_tenant.name] = infra_tenant

    # -- tenant access -----------------------------------------------------------

    @property
    def infrastructure_tenant(self) -> Tenant:
        return self.tenants["infrastructure"]

    @property
    def member_tenants(self) -> list[Tenant]:
        return [tenant for name, tenant in sorted(self.tenants.items())
                if tenant.kind is TenantKind.MEMBER]

    def tenant(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise ValidationError(f"unknown tenant: {name!r}") from None

    # -- topology wiring ---------------------------------------------------------

    def finalize_topology(self) -> int:
        """Install LAN latency overrides between co-tenant hosts.

        Host pairs in different tenants keep the default WAN link.  Call
        after components registered their addresses; idempotent, returns
        the number of host pairs overridden.
        """
        pairs = 0
        lan = LanProfile()
        for tenant in self.tenants.values():
            addresses = tenant.host_addresses
            for i, a in enumerate(addresses):
                for b in addresses[i + 1:]:
                    self.network.set_latency(a, b, lan)
                    pairs += 1
        return pairs

    def wire_host(self, address: str) -> int:
        """Install latency overrides for one newly registered host.

        The O(hosts) sibling of :meth:`finalize_topology` for runtime
        topology growth (an elastic decision plane adding a shard — and
        its policy replica — mid-run): only the new host's LAN pairs to
        its co-tenant hosts are wired, producing the identical overrides a
        full re-finalize would, without re-walking every existing pair.
        Returns the number of pairs installed.
        """
        owner = next(
            (t for t in self.tenants.values() if address in t.host_addresses), None
        )
        if owner is None:
            raise ValidationError(f"wire_host: {address!r} is not registered with any tenant")
        pairs = 0
        lan = LanProfile()
        for other in owner.host_addresses:
            if other != address:
                self.network.set_latency(address, other, lan)
                pairs += 1
        return pairs

    def describe(self) -> dict:
        """Topology summary (used by the Figure 1 bench and quickstart)."""
        return {
            "name": self.config.name,
            "clouds": [
                {"name": cloud.name,
                 "sections": [section.qualified_name for section in cloud.sections]}
                for cloud in self.clouds
            ],
            "tenants": {
                name: {
                    "kind": tenant.kind.value,
                    "sections": [section.qualified_name for section in tenant.sections],
                    "hosts": list(tenant.host_addresses),
                }
                for name, tenant in sorted(self.tenants.items())
            },
        }
