"""E16 — light-client monitoring: receipts and sublinear verification.

The full DRAMS Analyser audits decisions by replaying the chain — an O(n)
cost any federation party must pay to check even one decision.  The
light-client plane (:mod:`repro.lightclient`) replaces that with header
chains and per-decision receipts verified in O(log blocksize) hashes.
Two arms pin the claims:

1. **Receipts** — with light auditors attached to the full DRAMS stack,
   the light verifier must accept 100% of honestly served receipts and
   reject every tampered one (mutated leaf, proof, header, policy stamp).
2. **Scaling** — hashes verified per audited decision: a light receipt
   check stays at ``3 + log2(blocksize)`` while the full-audit cost (the
   chain a full node replays) grows linearly with the workload.

The retired chaos arm (E16c: receipts through the partition storm) keeps
its last rows in ``docs/lightclient.md`` §7; the ``storm-attacked``
workload of ``python -m bench`` runs with light auditors and fails on a
rejected or outstanding receipt, and
``tests/test_faults.py::TestHonestStorm`` checks every receipt of an
honest storm is accepted and decrypted.

That attaching the auditors leaves the monitored system bit-identical
(decisions, alerts, chain head) is pinned in tier-1:
``tests/test_neutrality.py::test_observer_neutrality[light_clients]``.
The retired sampling-Analyser arm keeps its last measured rows and its
closed-form detection bound in ``docs/lightclient.md`` §4.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import dataclasses
import math
import os

from benchmarks.common import bench_drams_config, write_json_report
from repro.blockchain.block import BlockHeader
from repro.crypto.merkle import MerkleProof
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import healthcare_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
RECEIPT_REQUESTS = 24 if SMOKE else 48
SCALE_STEPS = (12, 36) if SMOKE else (12, 48, 120)


def build_monitored(seed):
    stack = MonitoredFederation.build(
        healthcare_scenario(),
        clouds=2,
        seed=seed,
        with_drams=True,
        drams_config=bench_drams_config(),
        light_clients=True,
    )
    stack.start()
    return stack


# -- arm 1: receipt acceptance + tamper matrix --------------------------------------


def run_receipt_arm():
    stack = build_monitored(29)
    stack.issue_requests(RECEIPT_REQUESTS)
    stack.run(until=40.0)
    assert len(stack.outcomes) == RECEIPT_REQUESTS
    return stack


def assert_full_acceptance(stack) -> dict:
    """Every enforced decision ends in an accepted, decrypted receipt."""
    per_tenant = {}
    for outcome in stack.outcomes:
        per_tenant[outcome.request.origin_tenant] = (
            per_tenant.get(outcome.request.origin_tenant, 0) + 1)
    rows = {}
    for tenant, consumer in sorted(stack.light_clients.items()):
        expected = per_tenant.get(tenant, 0)
        assert consumer.receipts_accepted == expected, (
            f"{tenant}: {consumer.receipts_accepted}/{expected} receipts accepted")
        assert consumer.receipts_rejected == 0, consumer.rejections
        assert consumer.outstanding == 0
        assert all(r.payload is not None for r in consumer.receipts.values())
        rows[tenant] = consumer.stats()
    return rows


def run_tamper_matrix(stack) -> list[dict]:
    """Mutate an honestly served receipt four ways; all must be rejected."""
    _, consumer = sorted(stack.light_clients.items())[0]
    _, receipt = sorted(consumer.receipts.items())[0]
    trusted = consumer.header_client.header_for(receipt.block_hash)
    key = stack.drams.federation_key
    assert receipt.verify(trusted, federation_key=key).ok

    header = receipt.header
    sibling, is_right = receipt.proof.path[0] if receipt.proof.path else ("", True)
    mutations = {
        "mutated-leaf": dataclasses.replace(receipt, tx=receipt.tx.replace(
            args={**receipt.tx.args, "payload_hash": "00" * 32})),
        "mutated-proof": dataclasses.replace(receipt, proof=MerkleProof(
            leaf_index=receipt.proof.leaf_index, leaf=receipt.proof.leaf,
            path=(("ff" * 32, is_right),) + receipt.proof.path[1:])),
        "mutated-header": dataclasses.replace(receipt, header=BlockHeader(
            height=header.height, prev_hash=header.prev_hash,
            merkle_root=header.merkle_root, timestamp=header.timestamp + 1.0,
            difficulty_bits=header.difficulty_bits, miner=header.miner)),
        "mutated-policy-stamp": dataclasses.replace(receipt, tx=receipt.tx.replace(
            args={**receipt.tx.args,
                  "policy_version": receipt.policy_version + 1})),
    }
    rows = []
    for name, tampered in mutations.items():
        result = tampered.verify(trusted, federation_key=key)
        assert not result.ok, f"{name} was accepted"
        rows.append({"mutation": name, "accepted": result.ok,
                     "reason": result.reason})
    # A stamp pin rejects a receipt whose declared provenance differs.
    pinned = receipt.verify(trusted, federation_key=key,
                            expected_stamp=(receipt.policy_version + 1,
                                            receipt.policy_fingerprint))
    assert not pinned.ok
    rows.append({"mutation": "wrong-expected-stamp", "accepted": pinned.ok,
                 "reason": pinned.reason})
    return rows


# -- arm 2: scaling ----------------------------------------------------------------


def run_scale_arm(requests: int) -> dict:
    stack = build_monitored(31)
    stack.issue_requests(requests)
    stack.run(until=30.0 + 0.6 * requests)
    assert len(stack.outcomes) == requests
    assert_full_acceptance(stack)
    chain = stack.drams.reference_chain()
    total_txs = sum(len(chain._blocks[block_hash].transactions)
                    for block_hash in chain._applied_branch)
    accepted = sum(c.receipts_accepted for c in stack.light_clients.values())
    receipt_hashes = sum(c.hashes_verified for c in stack.light_clients.values())
    header_hashes = sum(hc.hashes_verified
                        for hc in stack.drams.header_clients.values())
    return {
        "decisions": requests,
        "chain_txs": total_txs,
        "chain_height": chain.height,
        "receipts": accepted,
        "light_hashes_per_receipt": round(receipt_hashes / accepted, 2),
        "header_hashes_per_client": round(
            header_hashes / len(stack.drams.header_clients), 1),
        "full_audit_cost_per_decision": total_txs,
    }


def test_e16_lightclient(report):
    # -- receipts ----------------------------------------------------------
    lit_stack = run_receipt_arm()
    acceptance = assert_full_acceptance(lit_stack)
    tamper_rows = run_tamper_matrix(lit_stack)

    # -- scaling -----------------------------------------------------------
    scale_rows = [run_scale_arm(requests) for requests in SCALE_STEPS]
    small, large = scale_rows[0], scale_rows[-1]
    growth = large["chain_txs"] / small["chain_txs"]
    assert growth >= 2.0, "workload sweep did not grow the chain"
    # Light verification is O(log blocksize): the per-receipt cost moves
    # by at most a couple of hashes while the full-audit cost (chain
    # replay) grows with the workload.
    assert (large["light_hashes_per_receipt"]
            - small["light_hashes_per_receipt"]) <= 3.0
    assert all(
        row["light_hashes_per_receipt"]
        <= 4 + math.log2(max(2, row["chain_txs"]))
        for row in scale_rows)
    assert large["full_audit_cost_per_decision"] > (
        10 * large["light_hashes_per_receipt"])

    report("e16", "\n\n".join([
        format_table(
            [{"tenant": tenant, **stats}
             for tenant, stats in acceptance.items()],
            title="E16a — receipt acceptance with light auditors attached",
        ),
        format_table(tamper_rows, title="E16a — tampered-receipt rejection matrix"),
        format_table(scale_rows,
                     title="E16b — light O(log n) verification vs full O(n) audit"),
    ]))
    write_json_report("e16", {
        "acceptance": acceptance,
        "tamper_matrix": tamper_rows,
        "scaling": scale_rows,
        "smoke": SMOKE,
    })
