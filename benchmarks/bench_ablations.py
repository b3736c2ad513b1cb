"""Ablation studies for the design choices docs/architecture.md calls out.

A1 — **probe placement**: the four-point deployment (pep-in, pdp-in,
pdp-out, pep-out) vs a two-point one that only observes the decision leg.
The two-point variant cannot see request tampering: the PDP evaluates the
forged request and every hash it logs is consistent.

A2 — **matching location**: contract-side hash matching vs relying on the
Analyser alone.  The Analyser audits the PDP's semantics, so a PEP that
enforces a different decision than the PDP issued goes unnoticed without
the on-chain decision-leg comparison.
"""

from benchmarks.common import bench_drams_config, build_stack
from repro.drams.alerts import AlertType
from repro.drams.logs import EntryType
from repro.metrics.tables import format_table
from repro.threats.adversary import Adversary
from repro.threats.attacks import DecisionTamperAttack, RequestTamperAttack

REQUESTS = 10
HORIZON = 50.0


def run_probe_placement(two_point: bool, seed: int) -> dict:
    config = bench_drams_config()
    if two_point:
        config = bench_drams_config(
            expected_entries=EntryType.DECISION_LEG)
    stack = build_stack(seed=seed, drams_config=config)
    if two_point:
        for key, probe in stack.drams.probes.items():
            probe.suppressed_types.update((EntryType.PEP_IN, EntryType.PDP_IN))
    adversary = Adversary(stack.drams)
    adversary.launch(RequestTamperAttack("tenant-1", escalated_value="doctor"),
                     at=0.5)
    stack.issue_requests(REQUESTS)
    stack.run(until=HORIZON)
    record = adversary.records()[0]
    return {
        "deployment": "2-point (decision leg only)" if two_point
                      else "4-point (both legs)",
        "attack": "request-tamper",
        "detected": "yes" if record.detected else "NO",
        "request_mismatch_alerts": stack.drams.alerts.count(
            AlertType.REQUEST_MISMATCH),
        "logs_per_request": 2 if two_point else 4,
    }


def run_matching_location(contract_matching: bool, seed: int) -> dict:
    config = bench_drams_config(enable_leg_matching=contract_matching)
    stack = build_stack(seed=seed, drams_config=config)
    adversary = Adversary(stack.drams)
    adversary.launch(DecisionTamperAttack("tenant-1"), at=0.5)
    stack.issue_requests(REQUESTS)
    stack.run(until=HORIZON)
    record = adversary.records()[0]
    return {
        "matching": "on-chain contract" if contract_matching
                    else "analyser only",
        "attack": "decision-tamper (PEP side)",
        "detected": "yes" if record.detected else "NO",
        "decision_mismatch_alerts": stack.drams.alerts.count(
            AlertType.DECISION_MISMATCH),
        "incorrect_decision_alerts": stack.drams.alerts.count(
            AlertType.INCORRECT_DECISION),
    }


def test_a1_probe_placement(report, benchmark):
    rows = [run_probe_placement(two_point=False, seed=500),
            run_probe_placement(two_point=True, seed=501)]
    table = format_table(rows, title="A1: four-point vs two-point probes "
                                     "(request-tamper attack)")
    report("ablations", table)
    assert rows[0]["detected"] == "yes"
    assert rows[1]["detected"] == "NO", \
        "two-point placement must miss request tampering (the ablation's point)"
    benchmark.pedantic(lambda: run_probe_placement(False, seed=502),
                       rounds=1, iterations=1)


def test_a2_matching_location(report, benchmark):
    rows = [run_matching_location(contract_matching=True, seed=510),
            run_matching_location(contract_matching=False, seed=511)]
    table = format_table(rows, title="A2: contract-side matching vs "
                                     "analyser-only (decision-tamper attack)")
    report("ablations", table)
    assert rows[0]["detected"] == "yes"
    assert rows[1]["detected"] == "NO", \
        "the analyser audits the PDP, not the PEP: contract matching is load-bearing"
    benchmark.pedantic(lambda: run_matching_location(True, seed=512),
                       rounds=1, iterations=1)


def test_a3_encryption_cost(report, benchmark):
    """Ablation of LI encryption: what confidentiality costs on the wire."""
    from repro.crypto.symmetric import SymmetricKey
    from repro.common.serialization import canonical_bytes

    key = SymmetricKey.generate(entropy=b"ablation")
    payload = canonical_bytes({"request_id": "req-1", "content": {
        "subject": {"role": ["doctor"], "subject-id": ["s-123"]},
        "resource": {"resource-id": ["r-55"], "type": ["medical-record"]},
        "action": {"action-id": ["read"]}}})
    blob = key.encrypt(payload)
    rows = [{
        "variant": "plaintext on chain",
        "bytes_per_entry": len(payload),
        "confidential": "no (chain is federation-readable)",
    }, {
        "variant": "encrypted (LI, SHA256-CTR+HMAC)",
        "bytes_per_entry": blob.size_bytes(),
        "confidential": "yes",
    }]
    overhead = blob.size_bytes() - len(payload)
    rows.append({"variant": "overhead", "bytes_per_entry": overhead,
                 "confidential": f"{overhead} B nonce+tag"})
    table = format_table(rows, title="A3: encryption overhead per log entry")
    report("ablations", table)
    assert overhead < 64

    benchmark(lambda: key.decrypt(key.encrypt(payload)))
