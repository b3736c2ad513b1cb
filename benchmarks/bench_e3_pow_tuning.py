"""E3 — "all PoW parameters can be dynamically tuned ... latency under control".

Two parts:

1. **Difficulty sweep (simulated mining)**: with fixed aggregate hashrate,
   raising the difficulty stretches the block interval and with it the
   log-commit latency — the knob a private federation chain exposes.
2. **Cross-validation (real mining)**: grinds genuine SHA-256 nonces at
   several difficulties and checks the measured work against the
   ``expected_hashes`` model that the simulated mode's timing is built on.
   This ties the simulator's statistics to real proof-of-work.
"""

import time

from benchmarks.common import bench_chain_config, bench_drams_config, build_stack, mean
from repro.blockchain.block import BlockHeader
from repro.blockchain.pow import expected_hashes, grind_nonce_parts, meets_target, retarget
from repro.metrics.tables import format_table

DIFFICULTIES = [8.0, 10.0, 12.0, 14.0]
HASHRATE = 1024.0  # per node, 5 nodes total
REQUESTS = 12


def run_at_difficulty(bits: float, seed: int) -> dict:
    config = bench_drams_config(
        chain=bench_chain_config(difficulty_bits=bits,
                                 target_block_interval=0.5),
        node_hashrate=HASHRATE)
    stack = build_stack(seed=seed, drams_config=config)
    stack.issue_requests(REQUESTS)
    horizon = max(120.0, expected_hashes(bits) / HASHRATE * 40)
    stack.run(until=horizon)
    chain = stack.drams.reference_chain()
    blocks = chain.main_chain()
    intervals = [b.header.timestamp - a.header.timestamp
                 for a, b in zip(blocks[1:], blocks[2:])]
    commits = stack.drams.commit_latencies()
    total_mined = sum(node.blocks_mined for node in stack.drams.nodes.values())
    return {
        "difficulty_bits": bits,
        "mean_block_interval_s": round(mean(intervals), 2),
        "commit_mean_s": round(mean(commits), 2) if commits else float("nan"),
        "stale_blocks": total_mined - chain.height,
        "reorgs": chain.reorgs,
        "logs_final": len(commits),
    }


def test_e3_difficulty_controls_latency(report, benchmark):
    rows = [run_at_difficulty(bits, seed=30 + i)
            for i, bits in enumerate(DIFFICULTIES)]
    table = format_table(
        rows, title="E3a: PoW difficulty vs block interval and commit latency "
                     "(5 nodes x 1024 H/s, simulated mining)")
    report("e3_pow_tuning", table)

    intervals = [row["mean_block_interval_s"] for row in rows]
    assert intervals[-1] > intervals[0] * 4, \
        "higher difficulty must stretch block intervals"
    commits = [row["commit_mean_s"] for row in rows]
    assert commits[-1] > commits[0], \
        "commit latency follows the block interval"

    benchmark.pedantic(lambda: run_at_difficulty(10.0, seed=77),
                       rounds=2, iterations=1)


def test_e3_real_grind_matches_statistical_model(report, benchmark):
    """Real SHA-256 grinding: measured attempts ~ expected_hashes(bits)."""
    rows = []
    for bits in (8.0, 10.0, 12.0, 14.0):
        attempts_per_trial = []
        elapsed = 0.0
        trials = 10
        for trial in range(trials):
            header = BlockHeader(height=1, prev_hash=f"{trial:064x}",
                                 merkle_root="m" * 64, timestamp=float(trial),
                                 difficulty_bits=bits, miner=f"bench-{trial}")
            started = time.perf_counter()
            found = grind_nonce_parts(*header.nonce_parts(), bits)
            elapsed += time.perf_counter() - started
            assert found is not None
            nonce, digest, attempts = found
            assert meets_target(digest, bits)
            attempts_per_trial.append(attempts)
        measured = mean(attempts_per_trial)
        expected = expected_hashes(bits)
        rows.append({
            "difficulty_bits": bits,
            "expected_hashes": int(expected),
            "measured_mean_hashes": int(measured),
            "ratio": round(measured / expected, 2),
            "wall_ms_per_block": round(elapsed / trials * 1000, 1),
        })
    table = format_table(
        rows, title="E3b: real PoW grinding vs the statistical model")
    report("e3_pow_tuning", table)

    # Exponential variance is large with 6 trials; accept a broad band but
    # require the trend (each +2 bits ~ 4x work) to show.
    assert rows[-1]["measured_mean_hashes"] > rows[0]["measured_mean_hashes"] * 8

    def grind_once():
        header = BlockHeader(height=1, prev_hash="ab" * 32, merkle_root="m" * 64,
                             timestamp=0.0, difficulty_bits=10.0, miner="bench")
        return grind_nonce_parts(*header.nonce_parts(), 10.0)

    benchmark(grind_once)


def test_e3_retargeting_steers_interval(report, benchmark):
    """Dynamic tuning: the retarget rule drives intervals to the target."""
    benchmark(lambda: retarget(10.0, actual_interval=0.4, target_interval=1.0))
    config = bench_drams_config(
        chain=bench_chain_config(difficulty_bits=8.0,
                                 target_block_interval=1.0,
                                 retarget_window=8),
        node_hashrate=4096.0)  # deliberately too fast for 8 bits
    stack = build_stack(seed=41, drams_config=config)
    stack.run(until=240.0)
    chain = stack.drams.reference_chain()
    blocks = chain.main_chain()
    assert len(blocks) > 40
    early = [b.header.timestamp - a.header.timestamp
             for a, b in zip(blocks[1:9], blocks[2:10])]
    late = [b.header.timestamp - a.header.timestamp
            for a, b in zip(blocks[-12:], blocks[-11:])]
    first_difficulty = blocks[1].header.difficulty_bits
    last_difficulty = blocks[-1].header.difficulty_bits
    table = format_table([
        {"phase": "first window", "mean_interval_s": round(mean(early), 3),
         "difficulty_bits": round(first_difficulty, 2)},
        {"phase": "steady state", "mean_interval_s": round(mean(late), 3),
         "difficulty_bits": round(last_difficulty, 2)},
    ], title="E3c: difficulty retargeting toward a 1s block interval")
    report("e3_pow_tuning", table)
    assert last_difficulty > first_difficulty
    assert abs(mean(late) - 1.0) < abs(mean(early) - 1.0)
