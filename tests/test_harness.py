"""The MonitoredFederation harness used by examples and benchmarks."""

from repro.harness import MonitoredFederation
from repro.workload.scenarios import healthcare_scenario
from tests.conftest import fast_drams_config


class TestBuild:
    def test_standard_stack_shape(self, healthcare_stack):
        stack = healthcare_stack
        assert len(stack.peps) == 2
        assert stack.drams is not None
        assert stack.prp.version_count() == 1
        # One node+LI per tenant (2 members + infra) plus the analyser node.
        assert len(stack.drams.nodes) == 4
        assert len(stack.drams.interfaces) == 3

    def test_without_drams(self):
        stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                          seed=80, with_drams=False)
        assert stack.drams is None
        stack.issue_requests(5)
        stack.run(until=10.0)
        assert len(stack.outcomes) == 5

    def test_cloud_count_scales_peps(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=4, seed=81,
            drams_config=fast_drams_config())
        assert len(stack.peps) == 4
        assert len(stack.drams.interfaces) == 5


class TestWorkload:
    def test_requests_round_robin_over_tenants(self, healthcare_stack):
        stack = healthcare_stack
        stack.issue_requests(6)
        stack.run(until=30.0)
        tenants = {outcome.request.origin_tenant for outcome in stack.outcomes}
        assert tenants == {"tenant-1", "tenant-2"}

    def test_owner_tenant_assignment_is_stable(self, healthcare_stack):
        stack = healthcare_stack
        stack.issue_requests(5)
        stack.run(until=30.0)
        owners = {}
        for outcome in stack.outcomes:
            rid = outcome.request.content["resource"]["resource-id"][0]
            owner = outcome.request.content["resource"]["owner-tenant"][0]
            owners.setdefault(rid, set()).add(owner)
        assert all(len(owner_set) == 1 for owner_set in owners.values())

    def test_latencies_positive(self, healthcare_stack):
        stack = healthcare_stack
        stack.issue_requests(5)
        stack.run(until=30.0)
        assert all(latency > 0 for latency in stack.access_latencies())

    def test_grant_rate_bounded(self, healthcare_stack):
        stack = healthcare_stack
        stack.issue_requests(20)
        stack.run(until=60.0)
        assert 0.0 <= stack.grant_rate() <= 1.0

    def test_reproducibility_across_builds(self):
        def run(seed):
            stack = MonitoredFederation.build(
                healthcare_scenario(), clouds=2, seed=seed,
                drams_config=fast_drams_config())
            stack.start()
            stack.issue_requests(10)
            stack.run(until=40.0)
            return stack.fingerprint()

        assert run(90) == run(90)
