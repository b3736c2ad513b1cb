"""Probes, Logging Interface, Analyser — component-level behaviour.

These use a real (fast) DRAMS deployment from the harness but inspect the
individual components rather than end-to-end detection (that lives in
test_threats.py).
"""

import pytest

from repro.common.errors import CryptoError, ValidationError
from repro.crypto.symmetric import SymmetricKey
from repro.drams.logs import EntryType, LogEntry
from repro.workload.scenarios import healthcare_scenario
from repro.harness import MonitoredFederation
from tests.conftest import fast_drams_config


def issue_one(stack, role="doctor", action="read"):
    tenant = sorted(stack.peps)[0]
    outcomes = []
    stack.peps[tenant].request_access(
        subject={"subject-id": "u1", "role": role},
        resource={"resource-id": "r1", "type": "medical-record",
                  "owner-tenant": tenant},
        action={"action-id": action},
        callback=outcomes.append)
    return tenant, outcomes


class TestLogEntry:
    def test_entry_type_validated(self):
        with pytest.raises(ValidationError):
            LogEntry(correlation_id="c", entry_type="nope", tenant="t",
                     component="x", payload={}, observed_at=0.0)

    def test_payload_hash_is_canonical(self):
        a = LogEntry("c", EntryType.PEP_IN, "t", "x", {"b": 1, "a": 2}, 0.0)
        b = LogEntry("c", EntryType.PEP_IN, "t", "x", {"a": 2, "b": 1}, 5.0)
        assert a.payload_hash() == b.payload_hash()

    def test_dict_roundtrip(self):
        entry = LogEntry("c", EntryType.PDP_OUT, "t", "x", {"d": "Permit"}, 1.5)
        assert LogEntry.from_dict(entry.to_dict()).payload_hash() == entry.payload_hash()


class TestProbes:
    def test_four_entries_per_request(self, healthcare_stack):
        stack = healthcare_stack
        issue_one(stack)
        stack.run(until=20.0)
        records = stack.drams.monitor_state()["records"]
        assert len(records) == 1
        record = next(iter(records.values()))
        assert sorted(record["entries"]) == sorted(EntryType.ALL)

    def test_probe_observation_counters(self, healthcare_stack):
        stack = healthcare_stack
        tenant, _ = issue_one(stack)
        stack.run(until=20.0)
        assert stack.drams.probes[f"pep:{tenant}"].observations == 2
        assert stack.drams.probes["pdp"].observations == 2

    def test_suppressed_probe_logs_nothing(self, healthcare_stack):
        stack = healthcare_stack
        tenant = sorted(stack.peps)[0]
        stack.drams.probes[f"pep:{tenant}"].suppressed = True
        issue_one(stack)
        stack.run(until=5.0)
        assert stack.drams.probes[f"pep:{tenant}"].observations == 0

    def test_selective_suppression(self, healthcare_stack):
        stack = healthcare_stack
        tenant = sorted(stack.peps)[0]
        probe = stack.drams.probes[f"pep:{tenant}"]
        probe.suppressed_types.add(EntryType.PEP_OUT)
        issue_one(stack)
        stack.run(until=20.0)
        record = next(iter(stack.drams.monitor_state()["records"].values()))
        assert EntryType.PEP_IN in record["entries"]
        assert EntryType.PEP_OUT not in record["entries"]


class TestLoggingInterface:
    def test_payloads_are_encrypted_on_chain(self, healthcare_stack):
        stack = healthcare_stack
        issue_one(stack)
        stack.run(until=20.0)
        record = next(iter(stack.drams.monitor_state()["records"].values()))
        entry = record["entries"][EntryType.PEP_IN]
        ciphertext = entry["ciphertext"]["ciphertext"]
        assert "subject-id" not in bytes.fromhex(ciphertext).decode("latin-1")

    def test_read_log_plaintext_roundtrip(self, healthcare_stack):
        stack = healthcare_stack
        issue_one(stack)
        stack.run(until=20.0)
        li = stack.drams.interfaces[sorted(stack.peps)[0]]
        corr = next(iter(stack.drams.monitor_state()["records"]))
        payload = li.read_log_plaintext(corr, EntryType.PDP_OUT)
        assert payload is not None and payload["decision"] in ("Permit", "Deny")

    def test_read_log_plaintext_missing_returns_none(self, healthcare_stack):
        li = healthcare_stack.drams.interfaces[sorted(healthcare_stack.peps)[0]]
        assert li.read_log_plaintext("nope", EntryType.PEP_IN) is None

    def test_commit_latency_tracked(self, healthcare_stack):
        stack = healthcare_stack
        issue_one(stack)
        stack.run(until=20.0)
        latencies = stack.drams.commit_latencies()
        assert len(latencies) == 4
        assert all(latency > 0 for latency in latencies)

    def test_wrong_key_cannot_decrypt(self, healthcare_stack):
        stack = healthcare_stack
        issue_one(stack)
        stack.run(until=20.0)
        record = next(iter(stack.drams.monitor_state()["records"].values()))
        blob_dict = record["entries"][EntryType.PEP_IN]["ciphertext"]
        from repro.crypto.symmetric import EncryptedBlob

        wrong = SymmetricKey.generate(entropy=b"not-the-federation-key")
        with pytest.raises(CryptoError):
            wrong.decrypt(EncryptedBlob.from_dict(blob_dict))

    def test_tpm_deployment_seals_key(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=77,
            drams_config=fast_drams_config(use_tpm=True))
        stack.start()
        li = stack.drams.interfaces[sorted(stack.peps)[0]]
        assert li.tpm is not None
        issue_one(stack)
        stack.run(until=20.0)
        assert li.logs_submitted == 2  # pep-in + pep-out
        # Simulate compromise: measurement drift blocks the key.
        li.tpm.extend_pcr("malware")
        issue_one(stack, role="nurse")
        stack.run(until=40.0)
        assert li.key_failures > 0


    def test_lis_hold_the_federation_key_without_a_tpm(self, healthcare_stack):
        interfaces = healthcare_stack.drams.interfaces.values()
        assert all(li.tpm is None for li in interfaces)
        federation_key = healthcare_stack.drams.federation_key
        assert {id(li._federation_key()) for li in interfaces} == {id(federation_key)}

    def test_tpm_deployment_keeps_no_key_in_the_clear(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=80,
            drams_config=fast_drams_config(use_tpm=True))
        blob = stack.drams.federation_key.encrypt(b"entry")
        for li in stack.drams.interfaces.values():
            assert li._plain_key is None
            assert li._federation_key().decrypt(blob) == b"entry"

    def test_transactions_verify_under_the_lis_own_key(self, healthcare_stack):
        first, second = (healthcare_stack.drams.interfaces[tenant]
                         for tenant in sorted(healthcare_stack.peps)[:2])
        tx = first._signed_tx("tick", {})
        assert tx.sender == first.address
        assert tx.verify(first.signing_key.public)
        assert not tx.verify(second.signing_key.public)

    def test_each_li_has_its_own_signing_key(self, healthcare_stack):
        interfaces = list(healthcare_stack.drams.interfaces.values())
        keys = {li.signing_key.public for li in interfaces}
        assert len(interfaces) > 1 and len(keys) == len(interfaces)


class TestAnalyser:
    def test_checks_every_decision(self, healthcare_stack):
        stack = healthcare_stack
        for _ in range(3):
            issue_one(stack)
        stack.run(until=25.0)
        assert stack.drams.analyser.checked == 3
        assert stack.drams.analyser.violations_reported == 0

    def test_detects_flipped_decision(self, healthcare_stack):
        stack = healthcare_stack
        from repro.accesscontrol.messages import AccessDecision

        def flip(request, decision):
            flipped = AccessDecision.from_dict(decision.to_dict())
            flipped.decision = "Permit" if decision.decision == "Deny" else "Deny"
            return flipped

        stack.pdp_service.evaluation_interceptor = flip
        issue_one(stack)
        stack.run(until=25.0)
        assert stack.drams.analyser.violations_reported == 1
        from repro.drams.alerts import AlertType

        assert stack.drams.alerts.count(AlertType.INCORRECT_DECISION) == 1

    def test_sweep_is_idempotent(self, healthcare_stack):
        stack = healthcare_stack
        issue_one(stack)
        stack.run(until=25.0)
        checked = stack.drams.analyser.checked
        assert stack.drams.analyser.sweep() == 0
        assert stack.drams.analyser.checked == checked


class TestSystem:
    def test_honest_run_is_alert_free(self, ministry_stack):
        stack = ministry_stack
        stack.issue_requests(15)
        stack.run(until=40.0)
        assert stack.drams.alerts.count() == 0
        stats = stack.drams.stats()
        assert stats["monitor"]["verified"] == 15
        assert stats["logs_submitted"] == 60

    def test_stats_shape(self, healthcare_stack):
        stats = healthcare_stack.drams.stats()
        assert {"chain_height", "reorgs", "monitor", "alerts_by_type",
                "logs_submitted", "analyser_checked"} <= set(stats)

    def test_all_nodes_converge(self, healthcare_stack):
        stack = healthcare_stack
        stack.issue_requests(10)
        stack.run(until=30.0)
        heads = {node.chain.head.hash for node in stack.drams.nodes.values()}
        assert len(heads) == 1

    def test_attestation_round_passes_for_honest_lis(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=78,
            drams_config=fast_drams_config(use_tpm=True))
        stack.start()
        assert stack.drams.run_attestation_round() == []

    def test_attestation_round_flags_drift(self):
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=79,
            drams_config=fast_drams_config(use_tpm=True))
        stack.start()
        li = stack.drams.interfaces[sorted(stack.peps)[0]]
        li.tpm.extend_pcr("tampered")
        failed = stack.drams.run_attestation_round()
        assert failed == [li.address]
        from repro.drams.alerts import AlertType

        assert stack.drams.alerts.count(AlertType.ATTESTATION_FAILURE) == 1

    def test_stop_halts_all_activity(self, healthcare_stack):
        stack = healthcare_stack
        stack.run(until=5.0)
        stack.drams.stop()
        executed_before = stack.sim.executed_events
        stack.run(until=30.0)
        # Only already-queued deliveries drain; no new mining/tick load.
        assert stack.sim.executed_events - executed_before < 50
