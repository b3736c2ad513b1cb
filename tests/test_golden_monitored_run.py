"""Golden pin: two whole monitored runs reproduce the slow-path result.

The literals below were recorded at commit ``c538da3`` — the last one with
``fastpath.FLAGS`` — with all four flags **off** (no encoding memo, no
verified-sets, no fixed-base tables, deep-copy contracts, interpreted
oracle); all-on gave the same literals there, under ``PYTHONHASHSEED`` 0, 1
and random.  They replace the whole-stack identity arms of the deleted E10
toggle benchmark: any memo, verified-set or compiled path that changes a
chain head, an alert, a decision or the Analyser's count breaks them.
"""

import hashlib

import pytest

from repro.blockchain.config import BlockchainConfig
from repro.common.serialization import canonical_bytes
from repro.drams.system import DramsConfig
from repro.harness import MonitoredFederation
from repro.workload.scenarios import audit_burst_scenario, healthcare_scenario


def drams_config(**chain_overrides) -> DramsConfig:
    """E10's ``bench_drams_config()`` over ``bench_chain_config(**chain_overrides)``."""
    chain = BlockchainConfig(
        chain_id="bench-chain",
        difficulty_bits=10.0,
        target_block_interval=0.5,
        retarget_window=0,
        pow_mode="simulated",
        confirmations=2,
        **chain_overrides,
    )
    return DramsConfig(
        chain=chain,
        timeout_blocks=10,
        tick_interval=1.0,
        analyser_sweep_interval=1.0,
        node_hashrate=1024.0,
        use_tpm=False,
    )


# (scenario, requests, sim horizon, chain caps, digest): E10's smoke arms.
GOLDEN = (
    pytest.param(
        healthcare_scenario,
        15,
        90.0,
        {},
        "f37d7a70932c1f2f2ad5b46fb6d31972b35c6c3054b7ae537a32eba1b66de8dd",
        id="healthcare",
    ),
    pytest.param(
        audit_burst_scenario,
        60,
        45.0,
        {"max_block_txs": 24, "max_block_bytes": 32_000},
        "3c3f8ed9fb93d1f5f8906d2799a27fde41c0d2446e691c380db6a291eeccf894",
        id="audit-burst",
    ),
)


@pytest.mark.parametrize("scenario_factory, requests, horizon, chain_caps, digest", GOLDEN)
def test_monitored_run_matches_slow_path_digest(
    scenario_factory, requests, horizon, chain_caps, digest
):
    stack = MonitoredFederation.build(
        scenario_factory(),
        clouds=2,
        seed=70,
        with_drams=True,
        drams_config=drams_config(**chain_caps),
    )
    stack.start()
    stack.issue_requests(requests)
    stack.run(until=horizon)
    drams = stack.drams
    chain = drams.reference_chain()
    fingerprint = {
        "head": chain.head.hash,
        "height": chain.height,
        "alerts": [
            [alert.alert_type.value, alert.correlation_id, alert.block_height]
            for alert in drams.alerts.all()
        ],
        "decisions": [
            [outcome.request.request_id, outcome.decision.decision, outcome.granted]
            for outcome in stack.outcomes
        ],
        "checked": drams.analyser.checked,
    }
    assert drams.analyser.checked == requests  # the run finished its audit
    assert hashlib.sha256(canonical_bytes(fingerprint)).hexdigest() == digest
