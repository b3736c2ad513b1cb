"""One rule set, two monitors: on one log stream DRAMS and the collector alert alike.

The centralized baseline (``repro.baselines.central``) and DRAMS's monitor
contract and Analyser all call ``repro.drams.rules``.  Each case runs a DRAMS
stack and feeds a collector every ``drams_log`` message the probes send (a
network tap), judged against the Analyser's own policy view.  The two monitors
must then raise the same alerts, counted by type and correlation, so a
detection difference in E6 comes from the architecture, not the rules.

``log-tamper`` is left out: it rewrites entries inside a Logging Interface,
downstream of the probes, so no collector of probe messages can see it.
"""

from collections import Counter

import pytest

from repro.accesscontrol.messages import AccessDecision
from repro.baselines.central import CentralizedMonitor
from repro.common.rng import SeededRng
from repro.harness import MonitoredFederation
from repro.policydist import ReplicatedPrpPlane
from repro.threats.adversary import Adversary
from repro.workload.scenarios import policy_churn_scenario
from tests.conftest import fast_drams_config
from tests.test_neutrality import REQUESTS, build, drive
from tests.test_threats import LIFTED, build_stack


def tap_collector(stack) -> CentralizedMonitor:
    """A collector fed every probe log of ``stack``, with the Analyser's policy view."""
    network = stack.federation.network
    collector = CentralizedMonitor(
        network, "parity-collector", stack.drams.analyser.prp, SeededRng(0, "parity")
    )
    collector.start()
    network.add_tap(collector.receive)
    return collector


def alerts(bus) -> Counter:
    return Counter((alert.alert_type, alert.correlation_id) for alert in bus.all())


def assert_same_alerts(stack, collector) -> None:
    assert alerts(collector.alerts) == alerts(stack.drams.alerts)


def test_an_honest_run_raises_nothing_in_either_monitor():
    stack = build_stack(seed=63)
    collector = tap_collector(stack)
    stack.issue_requests(8)
    stack.run(until=60.0)
    assert_same_alerts(stack, collector)
    assert stack.drams.alerts.all() == []
    assert collector.checked_decisions == stack.drams.analyser.checked == 8


@pytest.mark.parametrize("name", sorted(set(LIFTED) - {"log-tamper"}))
def test_every_attack_the_probes_see_alerts_alike(name):
    case = LIFTED[name]
    policy_plane = ReplicatedPrpPlane(propagation_delay=0.2) if case.replicated else None
    stack = build_stack(seed=63, policy_plane=policy_plane, **case.config)
    collector = tap_collector(stack)
    attack = Adversary(stack.drams).launch(case.build(), at=0.2)
    if case.provoke is not None:
        case.provoke(stack, attack)
    stack.issue_requests(8)
    stack.run(until=60.0)
    assert stack.drams.alerts.all(), "the attack must be detected for the parity to mean much"
    assert_same_alerts(stack, collector)


# -- churn-claim forgeries (tests/test_policydist.py::TestChurnClaimAudit) ------------


#: name -> (seed, publish version 2 first, enforced decision, stamp given version 1
#: and the true decision)
FORGERIES = {
    # A forged Permit stamped with a fingerprint no publisher made.
    "unknown-stamp": (31, False, "Permit", lambda v1, d: (d.policy_version + 1, "f" * 64)),
    # A Deny stamped with version 1, which permits contractor reads.
    "real-version-wrong-decision": (32, True, "Deny", lambda v1, d: (v1.version, v1.fingerprint)),
    # Another replica's honest version-1 answer: a claim the audit lets stand.
    "honest-failover-race": (33, True, "Permit", lambda v1, d: (v1.version, v1.fingerprint)),
}


@pytest.mark.parametrize("name", FORGERIES)
def test_churn_claim_forgeries_alert_alike(name):
    seed, republish, enforced, stamp = FORGERIES[name]
    scenario = policy_churn_scenario()
    stack = MonitoredFederation.build(scenario, seed=seed, drams_config=fast_drams_config())
    stack.start()
    collector = tap_collector(stack)
    pep = stack.peps["tenant-1"]
    v1 = stack.prp.current()
    if republish:
        stack.publish_policy(scenario.policy_variants[0], at=1.0)

    def forge(request, decision):
        forged = AccessDecision.from_dict(decision.to_dict())
        forged.decision = enforced
        forged.policy_version, forged.policy_fingerprint = stamp(v1, decision)
        return forged

    def contractor_read():
        pep.enforcement_interceptor = forge
        pep.request_access(
            subject={"role": "contractor"},
            resource={"type": "case-file", "resource-id": "case-77", "owner-tenant": "tenant-1"},
            action={"action-id": "read"},
        )

    stack.sim.schedule_at(2.0 if republish else 0.0, contractor_read)
    stack.run(until=40.0)
    assert stack.drams.alerts.all(), "every forgery at least raises policy-churn"
    assert_same_alerts(stack, collector)


def test_attaching_the_collector_leaves_the_run_unchanged():
    stack = build()
    collector = tap_collector(stack)
    drive(stack)
    assert collector.logs_received == 4 * REQUESTS
    assert collector.checked_decisions == REQUESTS
    assert stack.fingerprint() == drive(build()).fingerprint()
