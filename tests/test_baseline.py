"""The centralized-monitor baseline: equal detection, single point of failure."""

from repro.baselines.central import attach_centralized_monitoring
from repro.drams.alerts import AlertType
from repro.drams.logs import EntryType, LogEntry
from repro.harness import MonitoredFederation
from repro.workload.scenarios import healthcare_scenario


def build_baseline_stack(seed=70):
    """Unmonitored access control stack + centralized monitor."""
    stack = MonitoredFederation.build(healthcare_scenario(), clouds=2,
                                      seed=seed, with_drams=False)
    monitor, probes = attach_centralized_monitoring(
        stack.federation, stack.plane, stack.peps, stack.prp,
        timeout_seconds=5.0)
    monitor.start()
    return stack, monitor, probes


class TestHonestOperation:
    def test_collects_all_logs(self):
        stack, monitor, probes = build_baseline_stack()
        stack.issue_requests(10)
        stack.run(until=30.0)
        assert monitor.logs_received == 40
        assert monitor.alerts.count() == 0

    def test_checks_decisions(self):
        stack, monitor, probes = build_baseline_stack(seed=71)
        stack.issue_requests(5)
        stack.run(until=30.0)
        assert monitor.checked_decisions == 5


class TestDetection:
    def test_detects_decision_tamper(self):
        stack, monitor, probes = build_baseline_stack(seed=72)
        from repro.accesscontrol.messages import AccessDecision

        pep = stack.peps["tenant-1"]

        def force_permit(request, decision):
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = "Permit"
            return forged

        pep.enforcement_interceptor = force_permit
        stack.issue_requests(10)
        stack.run(until=30.0)
        assert monitor.alerts.count(AlertType.DECISION_MISMATCH) > 0

    def test_detects_missing_logs_via_sweep(self):
        stack, monitor, probes = build_baseline_stack(seed=73)
        from repro.accesscontrol.messages import AccessDecision

        pep = stack.peps["tenant-1"]
        pep.bypass = lambda request: AccessDecision(
            request_id=request.request_id, decision="Permit")
        stack.issue_requests(6)
        stack.run(until=30.0)
        assert monitor.alerts.count(AlertType.MISSING_LOG) > 0

    def test_detects_incorrect_decision(self):
        stack, monitor, probes = build_baseline_stack(seed=74)
        from repro.accesscontrol.messages import AccessDecision

        def flip(request, decision):
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = ("Permit" if decision.decision == "Deny"
                               else "Deny")
            return forged

        stack.pdp_service.evaluation_interceptor = flip
        stack.issue_requests(6)
        stack.run(until=30.0)
        assert monitor.alerts.count(AlertType.INCORRECT_DECISION) > 0


class TestSinglePointOfFailure:
    def test_compromise_blinds_the_monitor(self):
        stack, monitor, probes = build_baseline_stack(seed=75)
        from repro.accesscontrol.messages import AccessDecision

        pep = stack.peps["tenant-1"]

        def force_permit(request, decision):
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = "Permit"
            return forged

        pep.enforcement_interceptor = force_permit
        monitor.compromise()  # attacker owns the collector first
        stack.issue_requests(10)
        stack.run(until=30.0)
        # Same attack as above, zero detections, evidence discarded.
        assert monitor.alerts.count() == 0
        assert monitor.logs_discarded > 0
        assert monitor.records == {}

    def test_compromise_also_destroys_history(self):
        stack, monitor, probes = build_baseline_stack(seed=76)
        stack.issue_requests(5)
        stack.run(until=20.0)
        assert monitor.records
        monitor.compromise()
        assert monitor.records == {}  # no tamper evidence remains

    def test_compromise_scrubs_the_stored_logs(self):
        stack, monitor, probes = build_baseline_stack(seed=76)
        stack.issue_requests(5)
        stack.run(until=20.0)
        assert len(monitor.database) == 20
        monitor.compromise()
        assert len(monitor.database) == 0

    def test_compromise_scrubs_a_write_still_in_flight(self):
        stack, monitor, probes = build_baseline_stack(seed=76)
        write = monitor.database.write

        def write_then_compromise(*args, **kwargs):
            write(*args, **kwargs)  # commits only after the write latency
            monitor.database.write = write
            stack.sim.schedule(0.0, monitor.compromise)

        monitor.database.write = write_then_compromise
        stack.issue_requests(5)
        stack.run(until=20.0)
        assert monitor.database.writes == 1
        assert len(monitor.database) == 0


class TestContrastWithDrams:
    def test_drams_survives_single_tenant_monitor_compromise(self):
        """The architectural claim: one compromised LI cannot blind DRAMS."""
        from tests.conftest import fast_drams_config

        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=77,
            drams_config=fast_drams_config())
        stack.start()
        from repro.accesscontrol.messages import AccessDecision

        # Attacker controls tenant-1 end to end: tampers enforcement AND
        # silences that tenant's probe agent (its own logging path).
        pep = stack.peps["tenant-1"]

        def force_permit(request, decision):
            forged = AccessDecision.from_dict(decision.to_dict())
            forged.decision = "Permit"
            return forged

        pep.enforcement_interceptor = force_permit
        stack.drams.probes["pep:tenant-1"].suppressed = True
        stack.issue_requests(10)
        stack.run(until=40.0)
        # The PDP-side logs still reach the chain from the infrastructure
        # tenant, so the timeout sweep exposes the silenced PEP.
        assert stack.drams.alerts.count(AlertType.MISSING_LOG) > 0


class TestMalformedInput:
    def test_a_malformed_log_mid_run_is_dropped_and_counted(self):
        stack, monitor, probes = build_baseline_stack(seed=74)
        pep = stack.peps["tenant-1"]
        network = stack.federation.network
        stack.issue_requests(10)
        malformed = {"correlation_id": "c-1", "entry_type": "pep-sideways"}
        stack.sim.schedule_at(
            3.0, lambda: network.send(pep.address, monitor.address, "drams_log", malformed))
        stack.run(until=30.0)
        assert len(stack.outcomes) == 10
        assert monitor.logs_received == 40 and monitor.checked_decisions == 10
        assert monitor.alerts.count() == 0
        assert stack.run_summary()["network"]["malformed"] == {monitor.address: {"drams_log": 1}}

    def test_a_log_pair_without_content_or_decision_is_never_judged(self):
        stack, monitor, probes = build_baseline_stack(seed=74)
        pep = stack.peps["tenant-1"]
        network = stack.federation.network
        stack.issue_requests(10)

        def send_a_pair_of_empty_payloads():
            for entry_type in (EntryType.PDP_IN, EntryType.PDP_OUT):
                entry = LogEntry("c-empty", entry_type, "infrastructure", "pdp", {}, 3.0)
                network.send(pep.address, monitor.address, "drams_log", entry.to_dict())

        stack.sim.schedule_at(3.0, send_a_pair_of_empty_payloads)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 10 and monitor.checked_decisions == 10
        alerts = {(a.alert_type, a.correlation_id) for a in monitor.alerts.all()}
        assert alerts == {(AlertType.MISSING_LOG, "c-empty")}

    def test_a_log_pair_whose_request_does_not_decode_is_never_judged(self):
        stack, monitor, probes = build_baseline_stack(seed=74)
        pep = stack.peps["tenant-1"]
        network = stack.federation.network
        stack.issue_requests(10)
        payloads = {
            EntryType.PDP_IN: {"request_id": "r", "content": "x"},
            EntryType.PDP_OUT: {"request_id": "r", "decision": "Permit"},
        }

        def send_the_pair():
            for entry_type, payload in payloads.items():
                entry = LogEntry("c-x", entry_type, "infrastructure", "pdp", payload, 3.0)
                network.send(pep.address, monitor.address, "drams_log", entry.to_dict())

        stack.sim.schedule_at(3.0, send_the_pair)
        stack.run(until=30.0)
        assert len(stack.outcomes) == 10 and monitor.checked_decisions == 10
        alerts = {(a.alert_type, a.correlation_id) for a in monitor.alerts.all()}
        assert alerts == {(AlertType.MISSING_LOG, "c-x")}
