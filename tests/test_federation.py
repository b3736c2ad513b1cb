"""FaaS topology: clouds, sections, tenants, latency wiring."""

import pytest

from repro.common.errors import ValidationError
from repro.federation.federation import Federation, FederationConfig
from repro.federation.model import Cloud, Tenant, TenantKind
from repro.simnet.network import Host


class Probe(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.received = []
        self.delays = []

    def receive(self, message):
        self.received.append(message)
        self.delays.append(self.sim.now - message.sent_at)


class TestModel:
    def test_cloud_sections_unique(self):
        cloud = Cloud("c1")
        cloud.add_section("a")
        with pytest.raises(ValidationError):
            cloud.add_section("a")

    def test_section_qualified_name(self):
        assert Cloud("c1").add_section("infra").qualified_name == "c1/infra"

    def test_tenant_host_registration(self):
        tenant = Tenant("t", TenantKind.MEMBER)
        tenant.register_host("pep@t")
        with pytest.raises(ValidationError):
            tenant.register_host("pep@t")

    def test_tenant_address_convention(self):
        assert Tenant("t1", TenantKind.MEMBER).address("pep") == "pep@t1"


class TestFederationTopology:
    def test_default_two_cloud_topology(self):
        federation = Federation(FederationConfig(cloud_count=2))
        assert len(federation.clouds) == 2
        assert len(federation.member_tenants) == 2
        assert federation.infrastructure_tenant.kind is TenantKind.INFRASTRUCTURE

    def test_member_tenants_are_members(self):
        federation = Federation(FederationConfig(cloud_count=3))
        kinds = {tenant.kind for tenant in federation.member_tenants}
        assert kinds == {TenantKind.MEMBER}
        assert federation.infrastructure_tenant not in federation.member_tenants

    def test_infrastructure_tenant_spans_all_clouds(self):
        federation = Federation(FederationConfig(cloud_count=3))
        infra_clouds = {section.cloud_name
                        for section in federation.infrastructure_tenant.sections}
        assert infra_clouds == {"cloud-1", "cloud-2", "cloud-3"}

    def test_member_tenants_map_to_one_cloud(self):
        federation = Federation(FederationConfig(cloud_count=2))
        for tenant in federation.member_tenants:
            assert len({s.cloud_name for s in tenant.sections}) == 1

    def test_unknown_tenant_raises(self):
        with pytest.raises(ValidationError):
            Federation().tenant("ghost")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            FederationConfig(cloud_count=0)

    def test_describe_lists_everything(self):
        federation = Federation(FederationConfig(cloud_count=2))
        description = federation.describe()
        assert set(description["tenants"]) == {
            "tenant-1", "tenant-2", "infrastructure"}
        assert len(description["clouds"]) == 2


class TestLatencyWiring:
    def test_intra_tenant_traffic_is_faster_after_finalize(self):
        federation = Federation(FederationConfig(cloud_count=2, seed=3))
        tenant = federation.member_tenants[0]
        a = Probe(federation.network, tenant.address("a"))
        b = Probe(federation.network, tenant.address("b"))
        tenant.register_host(a.address)
        tenant.register_host(b.address)
        other = federation.member_tenants[1]
        c = Probe(federation.network, other.address("c"))
        other.register_host(c.address)
        pairs = federation.finalize_topology()
        assert pairs >= 1

        for _ in range(50):
            a.send(b.address, "ping", {})
            a.send(c.address, "ping", {})
        federation.sim.run()
        lan = sum(b.delays) / len(b.delays)
        wan = sum(c.delays) / len(c.delays)
        assert lan * 5 < wan

    def test_finalize_is_idempotent(self):
        federation = Federation()
        tenant = federation.member_tenants[0]
        a = Probe(federation.network, tenant.address("a"))
        tenant.register_host(a.address)
        first = federation.finalize_topology()
        second = federation.finalize_topology()
        assert first == second
