"""Ablation of the one design cost docs/architecture.md §4 measures by hand.

A3 — **encryption**: what the Logging Interface's confidentiality costs
per log entry on the wire.  It needs no switch: both variants are encoded
here directly.

The A1 (two-point probes) and A2 (Analyser-only matching) ablations needed
monitor switches no deployment sets; they are retired with those switches,
and their last rows are kept as a spec in ``docs/architecture.md`` §4.
"""

from repro.metrics.tables import format_table


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
