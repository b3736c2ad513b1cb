"""E16 — light-client monitoring: receipts, sublinear verification, sampling.

The full DRAMS Analyser audits decisions by replaying the chain — an O(n)
cost any federation party must pay to check even one decision.  The
light-client plane (:mod:`repro.lightclient`) replaces that with header
chains and per-decision receipts verified in O(log blocksize) hashes, and
with a sampling Analyser whose audit coverage carries a closed-form
detection bound.  Four arms pin the claims:

1. **Receipts** — with light auditors attached to the full DRAMS stack,
   the light verifier must accept 100% of honestly served receipts and
   reject every tampered one (mutated leaf, proof, header, policy stamp).
2. **Scaling** — hashes verified per audited decision: a light receipt
   check stays at ``3 + log2(blocksize)`` while the full-audit cost (the
   chain a full node replays) grows linearly with the workload.
3. **Sampling** — a :class:`SamplingAnalyser` at 10% against an injected
   evaluation-tamper campaign: detection must match the seeded-hash
   predicate exactly (the sample is deterministic), and a Monte Carlo
   sweep over seeds must land on the closed-form detection probability.
4. **Chaos** — the E15 partition-storm plan (PEP partition, blockchain
   node crash — the light clients' own proof server — and a PDP-shard
   crash): after the storm heals, every enforced decision still ends in
   an accepted receipt; none are lost or rejected.

That attaching the auditors leaves the monitored system bit-identical
(decisions, alerts, chain head) is pinned in tier-1:
``tests/test_neutrality.py::test_observer_neutrality[light_clients]``.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import dataclasses
import math
import os

from benchmarks.common import bench_drams_config, write_json_report
from repro.accesscontrol.pep import RetryBackoff
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.blockchain.block import BlockHeader
from repro.common.ids import reset_id_counter
from repro.crypto.merkle import MerkleProof
from repro.faults import FaultPlan, crash, partition
from repro.harness import MonitoredFederation
from repro.lightclient import detection_probability, sample_admit
from repro.metrics.tables import format_table
from repro.threats.adversary import Adversary
from repro.threats.attacks import EvaluationTamperAttack
from repro.workload.scenarios import healthcare_scenario, partition_storm_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
RECEIPT_REQUESTS = 24 if SMOKE else 48
SCALE_STEPS = (12, 36) if SMOKE else (12, 48, 120)
SAMPLING_REQUESTS = 30 if SMOKE else 60
SAMPLE_RATE = 0.1
MONTE_CARLO_SEEDS = 150 if SMOKE else 400
WAVE_STARTS = (0.1, 0.9, 1.4, 2.4, 3.2)
WAVE_SIZE = 6 if SMOKE else 10


def build_monitored(scenario, seed, *, light, drams_config=None, **kwargs):
    reset_id_counter()
    stack = MonitoredFederation.build(
        scenario, clouds=2, seed=seed, with_drams=True,
        drams_config=drams_config or bench_drams_config(),
        light_clients=light, **kwargs)
    stack.start()
    return stack


# -- arm 1: receipt acceptance + tamper matrix --------------------------------------


def run_receipt_arm():
    stack = build_monitored(healthcare_scenario(), 29, light=True)
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
    stack = build_monitored(healthcare_scenario(), 31, light=True)
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


# -- arm 3: sampling ---------------------------------------------------------------


def run_sampling_arm(sample_seed) -> dict:
    config = bench_drams_config(analyser_mode="sampling",
                                sample_rate=SAMPLE_RATE,
                                sample_seed=sample_seed)
    stack = build_monitored(healthcare_scenario(), 37, light=False,
                            drams_config=config)
    adversary = Adversary(stack.drams)
    attack = EvaluationTamperAttack()
    adversary.launch(attack, at=0.3)
    stack.issue_requests(SAMPLING_REQUESTS)
    stack.run(until=60.0)
    assert len(stack.outcomes) == SAMPLING_REQUESTS
    violating = list(attack.affected_correlations)
    sampled_hits = sum(
        sample_admit(sample_seed, SAMPLE_RATE, corr) for corr in violating)
    record = adversary.records()[0]
    stats = stack.drams.analyser.sampling_stats()
    # The sample is a deterministic predicate: detection is not a matter
    # of luck per run, it happens exactly when the campaign intersects
    # the audit set.
    assert record.detected == (sampled_hits > 0), (
        f"detection ({record.detected}) disagrees with the sample "
        f"({sampled_hits}/{len(violating)} violations audited)")
    assert len(adversary.false_positives()) == 0
    return {
        "sample_seed": str(sample_seed),
        "violations": len(violating),
        "violations_sampled": sampled_hits,
        "detected": record.detected,
        "detection_bound": round(
            detection_probability(SAMPLE_RATE, len(violating)), 4),
        "audited": stats["sampled_in"],
        "skipped": stats["sampled_out"],
        "observed_fraction": round(stats["observed_fraction"], 3),
    }


def monte_carlo_detection(rate: float, campaign: int, seeds: int) -> float:
    hits = 0
    for seed in range(seeds):
        if any(sample_admit(seed, rate, f"mc-{seed}-{i}")
               for i in range(campaign)):
            hits += 1
    return hits / seeds


# -- arm 4: chaos ------------------------------------------------------------------


def run_chaos_arm():
    plane = ShardedPdpPlane(shards=2)
    stack = build_monitored(
        partition_storm_scenario(), 83, light=True, plane=plane,
        pep_kwargs={"request_timeout": 1.0,
                    "backoff": RetryBackoff(base=0.2, cap=0.5)})
    shard_a, shard_b = (service.address for service in plane.services)
    controller = stack.inject_faults(FaultPlan(
        name="partition-storm",
        events=(
            partition(["pep@tenant-2"], [shard_a], at=0.6, heal_at=1.8),
            # tenant-2's blockchain node is also its light clients' proof
            # and header server: the receipt pipeline must ride out its
            # crash window and drain afterwards.
            crash("bcnode@tenant-2", at=1.0, restart_at=2.0),
            crash(shard_b, at=2.2, restart_at=3.0),
        ),
    ))
    for start in WAVE_STARTS:
        stack.issue_requests(WAVE_SIZE, start_at=start)
    stack.run(until=60.0)
    assert len(stack.outcomes) == len(WAVE_STARTS) * WAVE_SIZE, (
        "the storm lost decisions outright")
    rows = assert_full_acceptance(stack)
    slos = controller.recorder.slos()
    assert len(slos["recoveries"]) == 2
    assert slos["watches_outstanding"] == 0
    return rows, slos


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

    # -- sampling ----------------------------------------------------------
    sampling = run_sampling_arm(sample_seed=0)
    assert sampling["detected"], (
        "campaign evaded the seeded sample; pick a seed whose audit set "
        "intersects the storm (the predicate is deterministic)")
    mc_rows = []
    for campaign in (1, 5, 10, 20):
        empirical = monte_carlo_detection(SAMPLE_RATE, campaign,
                                          MONTE_CARLO_SEEDS)
        bound = detection_probability(SAMPLE_RATE, campaign)
        assert abs(empirical - bound) < 0.08, (
            f"k={campaign}: empirical {empirical} vs closed form {bound}")
        mc_rows.append({"campaign_size": campaign,
                        "closed_form": round(bound, 3),
                        "empirical": round(empirical, 3)})

    # -- chaos -------------------------------------------------------------
    chaos_rows, chaos_slos = run_chaos_arm()

    report("e16", "\n\n".join([
        format_table(
            [{"tenant": tenant, **stats}
             for tenant, stats in acceptance.items()],
            title="E16a — receipt acceptance with light auditors attached",
        ),
        format_table(tamper_rows, title="E16a — tampered-receipt rejection matrix"),
        format_table(scale_rows,
                     title="E16b — light O(log n) verification vs full O(n) audit"),
        format_table([sampling],
                     title="E16c — sampling Analyser vs evaluation-tamper campaign"),
        format_table(mc_rows,
                     title="E16c — detection bound, closed form vs Monte Carlo"),
        format_table(
            [{"tenant": tenant, **stats}
             for tenant, stats in chaos_rows.items()],
            title="E16d — receipts under partition-storm chaos",
        ),
    ]))
    write_json_report("e16", {
        "acceptance": acceptance,
        "tamper_matrix": tamper_rows,
        "scaling": scale_rows,
        "sampling": sampling,
        "monte_carlo": mc_rows,
        "chaos": {"consumers": chaos_rows, "slos": chaos_slos},
        "smoke": SMOKE,
    })
