"""Fast path vs slow path on every shipped scenario's real workload.

The acceptance bar for the decision fast path: with the target index on,
with the decision cache on, or both, every decision (value, status and
obligations) is bit-identical to plain tree-walking evaluation.
"""

import pytest

from repro.accesscontrol.context_handler import ContextHandler
from repro.accesscontrol.decision_cache import DecisionCache
from repro.common.rng import SeededRng
from repro.workload.generator import RequestGenerator
from repro.workload.scenarios import (
    SCENARIO_FACTORIES,
    delegation_scenario,
    iot_edge_scenario,
)
from repro.xacml.context import RequestContext
from repro.xacml.index import attribute_footprint
from repro.xacml.parser import policy_from_dict
from repro.xacml.pdp import PolicyDecisionPoint

REQUESTS = 150


def workload_contents(scenario, count=REQUESTS, seed=23):
    """Serialized request contexts as the PEPs would produce them.

    Resources are stamped with an owner tenant (as the harness does) so
    the scenarios' locality rules — home-tenant writes in particular —
    take both branches.
    """
    generator = RequestGenerator(scenario.workload, SeededRng(seed, "fastpath"))
    handlers = [ContextHandler("tenant-1"), ContextHandler("tenant-2")]
    contents = []
    for generated in generator.requests(count):
        resource = dict(generated.resource)
        resource.setdefault("owner-tenant",
                            f"tenant-{1 + (generated.index // 2) % 2}")
        contents.append(handlers[generated.index % 2].build(
            subject=generated.subject, resource=resource,
            action=generated.action, now=generated.at))
    return contents


def evaluate_all(pdp, contents):
    return [pdp.evaluate(RequestContext.from_dict(content)).to_dict()
            for content in contents]


@pytest.mark.parametrize("scenario_factory", SCENARIO_FACTORIES,
                         ids=lambda factory: factory.__name__)
class TestFastPathDifferential:
    def test_index_is_bit_identical(self, scenario_factory):
        scenario = scenario_factory()
        contents = workload_contents(scenario)
        slow = PolicyDecisionPoint(policy_from_dict(scenario.policy_document))
        fast = PolicyDecisionPoint(policy_from_dict(scenario.policy_document),
                                   indexed=True)
        assert evaluate_all(fast, contents) == evaluate_all(slow, contents)

    def test_cache_is_bit_identical(self, scenario_factory):
        scenario = scenario_factory()
        contents = workload_contents(scenario)
        root = policy_from_dict(scenario.policy_document)
        slow = PolicyDecisionPoint(root)
        expected = evaluate_all(slow, contents)

        footprint = attribute_footprint(root)
        cache = DecisionCache()
        cached_pdp = PolicyDecisionPoint(
            policy_from_dict(scenario.policy_document), indexed=True)
        for _ in range(2):  # second pass served (partly) from the cache
            got = []
            for content in contents:
                key = cache.request_key("fp", content, footprint)
                response = cache.get(key)
                if response is None:
                    response = cached_pdp.evaluate(
                        RequestContext.from_dict(content)).to_dict()
                    cache.put(key, "fp", response)
                got.append(response)
            assert got == expected
        assert cache.hits >= len(contents)  # pass two is all hits

    def test_scenario_decides_both_ways(self, scenario_factory):
        scenario = scenario_factory()
        contents = workload_contents(scenario)
        pdp = PolicyDecisionPoint(policy_from_dict(scenario.policy_document),
                                  indexed=True)
        decisions = {response["decision"]
                     for response in evaluate_all(pdp, contents)}
        assert "Permit" in decisions and "Deny" in decisions


class TestNewScenarioShapes:
    def test_iot_index_skips_most_branches(self):
        scenario = iot_edge_scenario()
        pdp = PolicyDecisionPoint(policy_from_dict(scenario.policy_document),
                                  indexed=True)
        evaluate_all(pdp, workload_contents(scenario))
        stats = pdp.index.stats
        # A dozen device classes, each request relevant to exactly one:
        # the index must discard the overwhelming majority of branches.
        assert stats.children_skipped > 10 * stats.children_evaluated

    def test_delegation_nesting_skips_through_layers(self):
        scenario = delegation_scenario()
        # federation → cloud → domain → policy: three sets above a leaf.
        node, levels = scenario.policy_document, 0
        while "policy_set_id" in node:
            node, levels = node["children"][0], levels + 1
        assert levels == 3 and "policy_id" in node
        pdp = PolicyDecisionPoint(policy_from_dict(scenario.policy_document),
                                  indexed=True)
        evaluate_all(pdp, workload_contents(scenario))
        stats = pdp.index.stats
        assert stats.children_skipped > 0
        assert stats.rules_skipped > 0

    def test_delegate_reads_within_clearance_only(self):
        from repro.analysis.semantics import evaluate_document

        document = delegation_scenario().policy_document
        low = {"subject": {"role": ["delegate"], "clearance": [1]},
               "action": {"action-id": ["read"]},
               "resource": {"type": ["hr-record"], "sensitivity": [5]}}
        high = {"subject": {"role": ["delegate"], "clearance": [5]},
                "action": {"action-id": ["read"]},
                "resource": {"type": ["hr-record"], "sensitivity": [1]}}
        write = {"subject": {"role": ["delegate"], "clearance": [5]},
                 "action": {"action-id": ["write"]},
                 "resource": {"type": ["hr-record"], "sensitivity": [1]}}
        assert evaluate_document(document, low) == "Deny"
        assert evaluate_document(document, high) == "Permit"
        assert evaluate_document(document, write) == "Deny"

    def test_iot_role_separation(self):
        from repro.analysis.semantics import evaluate_document

        document = iot_edge_scenario().policy_document
        sensor_push = {"subject": {"role": ["sensor"]},
                       "action": {"action-id": ["write"]},
                       "resource": {"type": ["temperature"]}}
        sensor_firmware = {"subject": {"role": ["sensor"]},
                           "action": {"action-id": ["write"]},
                           "resource": {"type": ["firmware-image"]}}
        analyst_read = {"subject": {"role": ["analyst"]},
                        "action": {"action-id": ["read"]},
                        "resource": {"type": ["power-meter"]}}
        assert evaluate_document(document, sensor_push) == "Permit"
        assert evaluate_document(document, sensor_firmware) == "Deny"
        assert evaluate_document(document, analyst_read) == "Permit"
