"""The monitor smart contract, driven directly through the engine."""

import pytest

from repro.blockchain.contracts import (
    ContractContext,
    ContractEngine,
    ContractRegistry,
)
from repro.drams.contract import (
    CONTRACT_NAME,
    EVENT_ALERT,
    EVENT_CHURN_REPORT,
    EVENT_LOG_RECORDED,
    EVENT_VERIFIED,
    MonitorContract,
)
from repro.drams.logs import EntryType


def engine(timeout_blocks=3, retention_blocks=10) -> ContractEngine:
    registry = ContractRegistry()
    registry.deploy(MonitorContract(timeout_blocks=timeout_blocks,
                                    retention_blocks=retention_blocks))
    return ContractEngine(registry)


def ctx(height=1, tx_id="tx", sender="li@t1") -> ContractContext:
    return ContractContext(block_height=height, block_timestamp=float(height),
                           sender=sender, tx_id=tx_id)


def record(eng, corr, entry_type, payload_hash, height=1, tenant="t1",
           component="pep@t1", tx_id=None, policy=None, policy_version=0,
           with_ciphertext=None):
    args = {
        "correlation_id": corr,
        "entry_type": entry_type,
        "payload_hash": payload_hash,
        "tenant": tenant,
        "component": component,
    }
    if policy is not None:
        args["policy_fingerprint"] = policy
        args["policy_version"] = policy_version
    # Stamped entries default to carrying a ciphertext, as honest LIs do —
    # the churn downgrade requires an auditable (decryptable) claim.
    if with_ciphertext or (with_ciphertext is None and policy is not None):
        args["ciphertext"] = {"nonce": "00", "ciphertext": "00", "tag": "00"}
    return eng.execute(CONTRACT_NAME, "record_log", args,
                       ctx(height=height, tx_id=tx_id or f"tx-{entry_type}-{height}"))


def events_named(receipt, name):
    return [e for e in receipt.events if e.name == name]


class TestRecording:
    def test_log_recorded_event(self):
        eng = engine()
        receipt = record(eng, "c1", EntryType.PEP_IN, "h1")
        assert receipt.ok
        assert len(events_named(receipt, EVENT_LOG_RECORDED)) == 1

    def test_unknown_entry_type_reverts(self):
        eng = engine()
        receipt = eng.execute(CONTRACT_NAME, "record_log", {
            "correlation_id": "c", "entry_type": "weird",
            "payload_hash": "h", "tenant": "t", "component": "x"}, ctx())
        assert not receipt.ok

    def test_missing_argument_reverts(self):
        eng = engine()
        receipt = eng.execute(CONTRACT_NAME, "record_log",
                              {"correlation_id": "c"}, ctx())
        assert not receipt.ok

    def test_unknown_method_reverts(self):
        eng = engine()
        assert not eng.execute(CONTRACT_NAME, "selfdestruct", {}, ctx()).ok

    def test_duplicate_same_hash_is_idempotent(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "h1")
        receipt = record(eng, "c1", EntryType.PEP_IN, "h1", height=2)
        assert receipt.ok and receipt.result.get("duplicate")
        assert eng.state_of(CONTRACT_NAME)["stats"]["logs"] == 1


class TestMatching:
    def test_matching_request_leg_no_alert(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "same")
        receipt = record(eng, "c1", EntryType.PDP_IN, "same")
        assert events_named(receipt, EVENT_ALERT) == []

    def test_request_mismatch_alert(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "original")
        receipt = record(eng, "c1", EntryType.PDP_IN, "tampered")
        alerts = events_named(receipt, EVENT_ALERT)
        assert len(alerts) == 1
        assert alerts[0].payload["alert_type"] == "request-mismatch"

    def test_decision_mismatch_alert(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "deny-hash")
        receipt = record(eng, "c1", EntryType.PEP_OUT, "permit-hash")
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "decision-mismatch"

    def test_mismatch_alert_fires_once(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "a")
        record(eng, "c1", EntryType.PDP_IN, "b")
        # Arrival of the decision leg must not re-raise the request alert.
        receipt = record(eng, "c1", EntryType.PDP_OUT, "d")
        assert all(e.payload["alert_type"] != "request-mismatch"
                   for e in events_named(receipt, EVENT_ALERT))

    def test_clean_flow_verifies(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "req")
        record(eng, "c1", EntryType.PDP_IN, "req")
        record(eng, "c1", EntryType.PDP_OUT, "dec")
        receipt = record(eng, "c1", EntryType.PEP_OUT, "dec")
        assert len(events_named(receipt, EVENT_VERIFIED)) == 1
        assert eng.state_of(CONTRACT_NAME)["stats"]["verified"] == 1

    def test_mismatched_flow_never_verifies(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "req")
        record(eng, "c1", EntryType.PDP_IN, "req")
        record(eng, "c1", EntryType.PDP_OUT, "dec")
        receipt = record(eng, "c1", EntryType.PEP_OUT, "other")
        assert events_named(receipt, EVENT_VERIFIED) == []

    def test_equivocation_alert(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "first")
        receipt = record(eng, "c1", EntryType.PEP_IN, "second")
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"
        assert alerts[0].payload["details"]["first_hash"] == "first"


class TestTimeouts:
    def test_incomplete_record_flagged_after_timeout(self):
        eng = engine(timeout_blocks=3)
        record(eng, "c1", EntryType.PEP_IN, "h", height=1)
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=4))
        alerts = events_named(receipt, EVENT_ALERT)
        assert len(alerts) == 1
        assert alerts[0].payload["alert_type"] == "missing-log"
        missing = alerts[0].payload["details"]["missing"]
        assert EntryType.PDP_IN in missing and EntryType.PEP_OUT in missing

    @pytest.mark.parametrize("present", EntryType.ALL)
    def test_missing_log_names_the_other_three_probe_points(self, present):
        eng = engine(timeout_blocks=1)
        record(eng, "c1", present, "h", height=1)
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=3))
        (alert,) = events_named(receipt, EVENT_ALERT)
        details = alert.payload["details"]
        assert details["missing"] == [kind for kind in EntryType.ALL if kind != present]
        assert details["present"] == [present]

    def test_no_flag_before_timeout(self):
        eng = engine(timeout_blocks=5)
        record(eng, "c1", EntryType.PEP_IN, "h", height=1)
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=3))
        assert events_named(receipt, EVENT_ALERT) == []

    def test_complete_record_not_flagged(self):
        eng = engine(timeout_blocks=1)
        for entry_type in EntryType.ALL:
            record(eng, "c1", entry_type, "same" if entry_type in
                   EntryType.REQUEST_LEG else "dec", height=1)
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=10))
        assert events_named(receipt, EVENT_ALERT) == []

    def test_missing_log_alert_fires_once(self):
        eng = engine(timeout_blocks=1)
        record(eng, "c1", EntryType.PEP_IN, "h", height=1)
        first = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=5))
        second = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=6))
        assert len(events_named(first, EVENT_ALERT)) == 1
        assert events_named(second, EVENT_ALERT) == []

    def test_retention_prunes_completed_records(self):
        eng = engine(timeout_blocks=2, retention_blocks=5)
        for entry_type in EntryType.ALL:
            record(eng, "c1", entry_type,
                   "req" if entry_type in EntryType.REQUEST_LEG else "dec",
                   height=1)
        assert "c1" in eng.state_of(CONTRACT_NAME)["records"]
        eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=20))
        assert "c1" not in eng.state_of(CONTRACT_NAME)["records"]
        assert eng.state_of(CONTRACT_NAME)["stats"]["pruned"] == 1

    def test_tick_reports_counts(self):
        eng = engine(timeout_blocks=1)
        record(eng, "c1", EntryType.PEP_IN, "h", height=1)
        record(eng, "c2", EntryType.PDP_IN, "h", height=1)
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=5))
        assert receipt.result["flagged"] == 2


class TestViolationReports:
    def test_report_violation_emits_alert(self):
        eng = engine()
        receipt = eng.execute(CONTRACT_NAME, "report_violation", {
            "correlation_id": "c1",
            "kind": "incorrect-decision",
            "details": {"expected": "Deny", "observed": "Permit"},
        }, ctx(sender="analyser@infra"))
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "incorrect-decision"
        assert alerts[0].payload["details"]["reported_by"] == "analyser@infra"

    def test_duplicate_violation_not_re_alerted(self):
        eng = engine()
        args = {"correlation_id": "c1", "kind": "incorrect-decision",
                "details": {}}
        eng.execute(CONTRACT_NAME, "report_violation", args,
                    ctx(tx_id="t1"))
        receipt = eng.execute(CONTRACT_NAME, "report_violation", args,
                              ctx(tx_id="t2"))
        assert events_named(receipt, EVENT_ALERT) == []

    def test_violation_on_unknown_correlation_creates_record(self):
        eng = engine()
        eng.execute(CONTRACT_NAME, "report_violation", {
            "correlation_id": "ghost", "kind": "incorrect-decision",
            "details": {}}, ctx())
        assert "ghost" in eng.state_of(CONTRACT_NAME)["records"]


class TestConfig:
    def test_bad_timeout_rejected(self):
        with pytest.raises(Exception):
            MonitorContract(timeout_blocks=0)


class TestPolicyChurnClassification:
    def test_conflicting_pdp_out_with_different_fingerprints_is_churn(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-v1",
               policy_version=1)
        receipt = record(eng, "c1", EntryType.PDP_OUT, "hash-v2",
                         policy="fp-v2", policy_version=2, height=2)
        assert receipt.result.get("policy_churn")
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "policy-churn"
        details = alerts[0].payload["details"]
        assert details["first_fingerprint"] == "fp-v1"
        assert details["second_fingerprint"] == "fp-v2"

    def test_conflicting_pdp_out_with_same_fingerprint_is_equivocation(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-a", policy="fp-v1")
        receipt = record(eng, "c1", EntryType.PDP_OUT, "hash-b",
                         policy="fp-v1", height=2)
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"

    def test_unstamped_conflict_stays_equivocation(self):
        eng = engine()
        record(eng, "c1", EntryType.PEP_IN, "first")
        receipt = record(eng, "c1", EntryType.PEP_IN, "second", height=2)
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"

    def test_decision_leg_mismatch_across_versions_is_churn(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "decision-v2", policy="fp-v2",
               policy_version=2)
        receipt = record(eng, "c1", EntryType.PEP_OUT, "decision-v1",
                         policy="fp-v1", policy_version=1, height=2)
        alerts = events_named(receipt, EVENT_ALERT)
        assert len(alerts) == 1
        assert alerts[0].payload["alert_type"] == "policy-churn"
        assert alerts[0].payload["details"]["leg"] == [EntryType.PDP_OUT,
                                                       EntryType.PEP_OUT]

    def test_decision_leg_mismatch_same_version_stays_mismatch(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "deny-hash", policy="fp-v1")
        receipt = record(eng, "c1", EntryType.PEP_OUT, "permit-hash",
                         policy="fp-v1", height=2)
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "decision-mismatch"


class TestSweepIndex:
    def complete(self, eng, corr, height=1):
        for entry_type in EntryType.ALL:
            record(eng, corr, entry_type,
                   "req" if entry_type in EntryType.REQUEST_LEG else "dec",
                   height=height)

    def test_tick_scans_only_pending_records(self):
        eng = engine(timeout_blocks=3, retention_blocks=0)
        for index in range(50):
            self.complete(eng, f"done-{index}")
        record(eng, "open-1", EntryType.PEP_IN, "h")
        record(eng, "open-2", EntryType.PEP_IN, "h")
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=2))
        # 52 records exist, but the sweep walked only the 2 open ones.
        assert len(eng.state_of(CONTRACT_NAME)["records"]) == 52
        assert receipt.result["scanned"] == 2

    def test_sweep_cost_scales_with_pending_not_with_history(self):
        eng = engine(timeout_blocks=100, retention_blocks=0)
        record(eng, "open", EntryType.PEP_IN, "h")
        scans = []
        for round_index in range(4):
            for index in range(25):
                self.complete(eng, f"batch-{round_index}-{index}")
            receipt = eng.execute(CONTRACT_NAME, "tick", {},
                                  ctx(height=2, tx_id=f"tick-{round_index}"))
            scans.append(receipt.result["scanned"])
        # History grew by 100 verified records; the sweep never did.
        assert scans == [1, 1, 1, 1]

    def test_flagged_records_leave_the_pending_index(self):
        eng = engine(timeout_blocks=2)
        record(eng, "c1", EntryType.PEP_IN, "h", height=1)
        first = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=5))
        assert first.result["flagged"] == 1
        second = eng.execute(CONTRACT_NAME, "tick", {},
                             ctx(height=6, tx_id="tick-2"))
        assert second.result["scanned"] == 0

    def test_retention_pruning_pops_the_retained_prefix(self):
        eng = engine(timeout_blocks=2, retention_blocks=5)
        self.complete(eng, "old", height=1)
        self.complete(eng, "young", height=8)
        receipt = eng.execute(CONTRACT_NAME, "tick", {}, ctx(height=10))
        state = eng.state_of(CONTRACT_NAME)
        assert receipt.result["pruned"] == 1
        assert "old" not in state["records"]
        assert "young" in state["records"]
        assert list(state["retained"]) == ["young"]

    def test_same_declared_version_different_fingerprints_is_equivocation(self):
        # Honestly impossible: one version number, two documents.  A
        # tamperer must not be able to buy the churn downgrade this way.
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-a", policy="fp-a",
               policy_version=3)
        receipt = record(eng, "c1", EntryType.PDP_OUT, "hash-b",
                         policy="fp-b", policy_version=3, height=2)
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"

    def test_churn_keeps_the_conflicting_report_for_audit(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-v1",
               policy_version=1)
        eng.execute(CONTRACT_NAME, "record_log", {
            "correlation_id": "c1", "entry_type": EntryType.PDP_OUT,
            "payload_hash": "hash-v2", "tenant": "t1", "component": "pdp-1",
            "policy_fingerprint": "fp-v2", "policy_version": 2,
            "ciphertext": {"nonce": "00", "ciphertext": "00", "tag": "00"},
        }, ctx(height=2, tx_id="conflict"))
        reports = eng.state_of(CONTRACT_NAME)["records"]["c1"]["churn_reports"]
        assert len(reports) == 1
        assert reports[0]["policy_fingerprint"] == "fp-v2"
        assert reports[0]["component"] == "pdp-1"
        assert "ciphertext" in reports[0]

    def test_every_churn_claim_is_announced_even_after_the_alert_deduped(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-v1",
               policy_version=1)
        first = record(eng, "c1", EntryType.PDP_OUT, "hash-v2",
                       policy="fp-v2", policy_version=2, height=2)
        second = record(eng, "c1", EntryType.PDP_OUT, "hash-v3",
                        policy="fp-v3", policy_version=3, height=3)
        # One deduplicated alert, but one audit announcement per claim.
        assert len(events_named(first, EVENT_ALERT)) == 1
        assert events_named(second, EVENT_ALERT) == []
        assert len(events_named(first, EVENT_CHURN_REPORT)) == 1
        assert len(events_named(second, EVENT_CHURN_REPORT)) == 1
        reports = eng.state_of(CONTRACT_NAME)["records"]["c1"]["churn_reports"]
        assert [r["policy_fingerprint"] for r in reports] == ["fp-v2", "fp-v3"]

    def test_churn_report_overflow_degrades_to_equivocation(self):
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-v1",
               policy_version=1)
        cap = MonitorContract.MAX_CHURN_REPORTS
        for index in range(cap):
            record(eng, "c1", EntryType.PDP_OUT, f"hash-{index}",
                   policy=f"fp-{index}", policy_version=10 + index,
                   height=2 + index, tx_id=f"conflict-{index}")
        receipt = record(eng, "c1", EntryType.PDP_OUT, "hash-flood",
                         policy="fp-flood", policy_version=99, height=50,
                         tx_id="flood")
        assert receipt.result.get("equivocation")
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"
        assert alerts[0].payload["details"]["reason"] == "churn-report-overflow"

    def test_without_ciphertexts_conflicts_stay_equivocation(self):
        # Entries logged without ciphertexts -> the Analyser could never
        # audit a churn claim, so the downgrade must not be offered at all.
        eng = engine()

        def stamped(tx_id, payload_hash, fp, version, entry_type):
            return eng.execute(CONTRACT_NAME, "record_log", {
                "correlation_id": "c1", "entry_type": entry_type,
                "payload_hash": payload_hash, "tenant": "t1",
                "component": "pdp", "policy_fingerprint": fp,
                "policy_version": version,
            }, ctx(tx_id=tx_id))

        stamped("t1", "hash-v1", "fp-v1", 1, EntryType.PDP_OUT)
        receipt = stamped("t2", "hash-v2", "fp-v2", 2, EntryType.PDP_OUT)
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"
        leg = stamped("t3", "hash-v3", "fp-v3", 3, EntryType.PEP_OUT)
        leg_alerts = events_named(leg, EVENT_ALERT)
        assert [a.payload["alert_type"] for a in leg_alerts] == [
            "decision-mismatch"]

    def test_identical_republish_with_same_fingerprint_is_still_churn(self):
        # A rollback republishes an earlier document: new version number,
        # same content hash.  Honest replicas racing it must not read as
        # equivocation.
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-same",
               policy_version=1)
        receipt = record(eng, "c1", EntryType.PDP_OUT, "hash-v2",
                         policy="fp-same", policy_version=2, height=2)
        assert receipt.result.get("policy_churn")
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "policy-churn"

    def test_conflicting_report_without_ciphertext_is_equivocation(self):
        # An unauditable claim buys no downgrade: without a ciphertext the
        # Analyser could never verify it.
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-v1",
               policy_version=1)
        receipt = record(eng, "c1", EntryType.PDP_OUT, "hash-v2",
                         policy="fp-v2", policy_version=2, height=2,
                         with_ciphertext=False)
        assert receipt.result.get("equivocation")
        alerts = events_named(receipt, EVENT_ALERT)
        assert alerts[0].payload["alert_type"] == "equivocation"

    def test_leg_churn_is_announced_even_when_the_alert_was_consumed(self):
        # A prior conflicting pdp-out consumed the record's one
        # policy-churn alert; the later leg-churn claim must still be
        # announced for audit (and must not be silently dropped).
        eng = engine()
        record(eng, "c1", EntryType.PDP_OUT, "hash-v1", policy="fp-v1",
               policy_version=1)
        record(eng, "c1", EntryType.PDP_OUT, "hash-v2", policy="fp-v2",
               policy_version=2, height=2)  # consumes the churn alert
        receipt = record(eng, "c1", EntryType.PEP_OUT, "hash-v7",
                         policy="fp-v7", policy_version=7, height=3)
        assert events_named(receipt, EVENT_ALERT) == []  # alert deduped
        assert len(events_named(receipt, EVENT_CHURN_REPORT)) == 1
