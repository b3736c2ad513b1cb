"""Shared fixtures.

Integration fixtures use deliberately fast parameters (short block
intervals, tiny federations) so the suite stays quick; the benchmarks are
where realistic parameters live.
"""

from __future__ import annotations

import pytest

from repro.blockchain.config import BlockchainConfig
from repro.common.rng import SeededRng
from repro.drams.system import DramsConfig
from repro.harness import MonitoredFederation
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.workload.scenarios import healthcare_scenario, ministry_scenario


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(1234, "tests")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim, rng) -> Network:
    return Network(sim, rng, default_latency=ConstantLatency(0.001))


def fast_drams_config(**overrides) -> DramsConfig:
    """DRAMS config tuned for test speed (sub-second blocks)."""
    defaults = dict(
        chain=BlockchainConfig(
            chain_id="test-drams-chain",
            difficulty_bits=8.0,
            target_block_interval=0.5,
            retarget_window=0,
            pow_mode="simulated",
            confirmations=1,
        ),
        timeout_blocks=4,
        tick_interval=1.0,
        analyser_sweep_interval=1.0,
        node_hashrate=256.0,
        use_tpm=False,
    )
    defaults.update(overrides)
    return DramsConfig(**defaults)


@pytest.fixture
def healthcare_stack() -> MonitoredFederation:
    stack = MonitoredFederation.build(
        healthcare_scenario(), clouds=2, seed=42,
        drams_config=fast_drams_config())
    stack.start()
    return stack


@pytest.fixture
def ministry_stack() -> MonitoredFederation:
    stack = MonitoredFederation.build(
        ministry_scenario(), clouds=2, seed=43,
        drams_config=fast_drams_config())
    stack.start()
    return stack
