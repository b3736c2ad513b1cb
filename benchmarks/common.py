"""Shared helpers for the benchmark harness.

Every benchmark prints its regenerated table/series through
:func:`repro.metrics.tables.format_table` and asserts the *qualitative
shape* the paper claims (who wins, what grows) rather than absolute
numbers — our substrate is a simulator, not the authors' testbed.

Experiment ids (E1..E18) map to the table in docs/benchmarks.md.  Benchmarks
with quantitative acceptance bars additionally persist a machine-readable
record via :func:`write_json_report` so CI can archive the perf trajectory.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from repro.blockchain.config import BlockchainConfig
from repro.drams.system import DramsConfig
from repro.harness import MonitoredFederation
from repro.metrics.recorder import percentile
from repro.workload.scenarios import Scenario, healthcare_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seed for generated scenarios (scenariogen specs) in benchmark arms.
#: ``benchmarks/conftest.py`` overwrites this from the ``--scenario-seed``
#: pytest option; :func:`write_json_report` records it so every archived
#: JSON report names the generator stream it was produced from.
SCENARIO_SEED = 7


def bench_chain_config(
    difficulty_bits: float = 10.0,
    target_block_interval: float = 0.5,
    confirmations: int = 2,
    **overrides,
) -> BlockchainConfig:
    defaults = dict(
        chain_id="bench-chain",
        difficulty_bits=difficulty_bits,
        target_block_interval=target_block_interval,
        retarget_window=0,
        pow_mode="simulated",
        confirmations=confirmations,
    )
    defaults.update(overrides)
    return BlockchainConfig(**defaults)


def bench_drams_config(**overrides) -> DramsConfig:
    defaults = dict(
        chain=bench_chain_config(),
        # 10 blocks x 0.5s = 5s: wide enough that heavy-tailed WAN gossip
        # does not trip the timeout sweep on honest traffic.
        timeout_blocks=10,
        tick_interval=1.0,
        analyser_sweep_interval=1.0,
        node_hashrate=1024.0,
        use_tpm=False,
    )
    defaults.update(overrides)
    return DramsConfig(**defaults)


def build_stack(
    scenario: Scenario | None = None,
    clouds: int = 2,
    seed: int = 7,
    with_drams: bool = True,
    drams_config: DramsConfig | None = None,
) -> MonitoredFederation:
    stack = MonitoredFederation.build(
        scenario or healthcare_scenario(),
        clouds=clouds,
        seed=seed,
        with_drams=with_drams,
        drams_config=drams_config or bench_drams_config(),
    )
    stack.start()
    return stack


def write_json_report(experiment_id: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable benchmark record to ``BENCH_<id>.json``.

    The text tables in ``benchmarks/results/*.txt`` are for humans; this
    JSON sibling is for the perf trajectory: CI uploads it as an artifact,
    so speedups can be compared across commits instead of eyeballed.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{experiment_id}.json"
    record = {
        "experiment": experiment_id,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "smoke": os.environ.get("REPRO_BENCH_SMOKE") == "1",
        "scenario_seed": SCENARIO_SEED,
    }
    record.update(payload)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def p95(values) -> float:
    """95th percentile via the shared order-statistics engine.

    Delegates to :func:`repro.metrics.recorder.percentile` (linear
    interpolation) — the same summariser behind telemetry histograms —
    instead of a duplicated nearest-rank implementation.
    """
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return percentile(ordered, 0.95)
