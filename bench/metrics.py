"""The benchmark's vocabulary: workloads, end-to-end metrics, bounds.

No program import here — the runner, ``bench.diff`` and the self-test all
read this table, and ``BENCHMARK.json`` must agree with it
(``bench/test_bench.py`` checks that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

STEADY = "steady-monitored"
UNMONITORED = "unmonitored-stream"
BURST = "burst-monitored-4c"
STORM = "storm-attacked"

#: name → (N at scale 1.0, one-line reason).  N is access requests; for
#: ``storm-attacked`` it is requests per wave (5 waves × 10 sub-runs).
WORKLOADS = {
    STEADY: (500, "Poisson 60 req/s on 2 clouds with full DRAMS: 60 % of chain capacity, "
                  "nothing queues, wall time is per-decision monitoring work (the headline)"),
    UNMONITORED: (15000, "same federation streamed at 2500 req/s without DRAMS: the control "
                         "arm, where crypto and chain optimisations must predict no change"),
    BURST: (300, "2500 req/s on 4 clouds and 4 PDP shards with full DRAMS: 25x chain capacity, "
                 "mempool floods, full blocks, every node re-verifies every tx"),
    STORM: (10, "ten attack classes under a partition and two crashes with light clients and "
                "replicated PRPs: the fault and forgery paths honest traffic never reaches"),
}

ALL = tuple(WORKLOADS)
MONITORED = (STEADY, BURST, STORM)

#: The runner never measures fewer repeats than this (``--smoke`` aside).
MIN_REPEATS = 3
#: ``--smoke`` shrinks every N to this share.
SMOKE_SCALE = 0.05
#: Calibration spread (max/min) past which a result set is ``unstable``.
UNSTABLE_RATIO = 1.10


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``bound`` is the share of the baseline by which the metric may get
    worse between two result sets *of the same seed* before ``bench.diff``
    calls it a regression.  Simulated-time metrics repeat exactly on one
    seed, hence 1 %.  ``across_seeds`` is the wider bound ``BENCHMARK.json``
    carries for the metrics every workload reports: the driver compares
    runs of *different* seeds, so it has to cover the seed-to-seed spread
    (each is about three times the widest interquartile spread measured
    over two sweeps of ten seeds: forks make ``wire_kb_per_decision``
    bimodal on the burst workload, and the box's clock drift alone moves
    ``decisions_per_s`` by 6-10 %).
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple
    wall: bool = False
    across_seeds: Optional[float] = None
    #: Absolute slack, in the metric's unit, allowed on top of ``bound``.
    floor: float = 0.0


END_TO_END = (
    Metric("decisions_per_s", "1/s", "higher", 0.15, ALL, wall=True, across_seeds=0.25),
    Metric("setup_s", "s", "lower", 0.30, ALL, wall=True, across_seeds=0.25, floor=0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, ALL, wall=True, across_seeds=0.15),
    Metric("access_latency_sim_p50_ms", "ms", "lower", 0.01, ALL, across_seeds=0.15),
    Metric("access_latency_sim_p95_ms", "ms", "lower", 0.01, ALL, across_seeds=0.20),
    Metric("log_commit_sim_p50_s", "s", "lower", 0.01, MONITORED),
    Metric("log_commit_sim_p95_s", "s", "lower", 0.01, MONITORED),
    Metric("audit_drain_sim_s", "s", "lower", 0.01, (STEADY, BURST)),
    Metric("wire_kb_per_decision", "KiB", "lower", 0.01, ALL, across_seeds=0.25),
    Metric("chain_kb_per_decision", "KiB", "lower", 0.01, MONITORED),
    Metric("detect_latency_sim_p50_s", "s", "lower", 0.01, (STORM,)),
    Metric("detect_latency_sim_max_s", "s", "lower", 0.01, (STORM,)),
    Metric("max_ttr_sim_s", "s", "lower", 0.01, (STORM,)),
    Metric("failed_ops_share", "ratio", "lower", 0.0, ALL),
)

BY_NAME = {metric.name: metric for metric in END_TO_END}

#: Simulated-time hops of the telemetry plane's critical path.
HOPS = ("pep.dispatch", "pdp.evaluate", "li.record_log", "chain.mempool",
        "chain.commit", "analyser.audit", "wait")

#: Exact per-layer counters every child reports (traced or not).
COUNTERS = (
    ("simnet.msgs_per_decision", "count", "lower"),
    ("simnet.events_per_decision", "count", "lower"),
    ("simnet.dropped", "count", "lower"),
    ("simnet.dropped_dead", "count", "lower"),
    ("blockchain.blocks", "count", "lower"),
    ("blockchain.reorgs", "count", "lower"),
    ("blockchain.txs_per_block_mean", "count", "higher"),
    ("drams.logs_per_decision", "count", "lower"),
    ("drams.checked_share", "ratio", "higher"),
    ("drams.alerts_total", "count", "lower"),
    ("accesscontrol.timeouts", "count", "lower"),
    ("accesscontrol.failovers", "count", "lower"),
    ("accesscontrol.churn_reroutes", "count", "lower"),
    ("accesscontrol.cache_hit_ratio", "ratio", "higher"),
    ("lightclient.accepted", "count", "higher"),
    ("lightclient.rejected", "count", "lower"),
    ("lightclient.outstanding", "count", "lower"),
    ("faults.events_applied", "count", "higher"),
    ("faults.decisions_rerouted", "count", "higher"),
)

#: Counters only the span recorder's wrappers can observe.
TRACED_COUNTERS = (
    ("serialization.kb_encoded_per_decision", "KiB", "lower"),
    ("blockchain.mempool_peak", "count", "lower"),
)

TRACE_SUMMARY = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.covered_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("other.self_ms_per_decision", "ms", "lower"),
)


#: Below four requests per wave some storm sub-run sees no traffic on the
#: attacked path or the restarted shard, and detection cannot be scored.
MIN_N = {STORM: 4}


def scaled_n(workload: str, scale: float) -> int:
    return max(MIN_N.get(workload, 2), round(WORKLOADS[workload][0] * scale))


def per_layer(span_names) -> dict:
    """name → (unit, better) of every per-layer metric, in reporting order.

    The end-to-end metrics that only some workloads have ride along here
    in the driver's view: ``BENCHMARK.json`` may list as end-to-end only
    what every workload reports and is never 0.
    """
    table: dict = {}
    for span in span_names:
        table[f"{span}.calls_per_decision"] = ("count", "lower")
        table[f"{span}.self_ms_per_decision"] = ("ms", "lower")
    for name, unit, better in COUNTERS + TRACED_COUNTERS:
        table[name] = (unit, better)
    for hop in HOPS:
        table[f"hop.{hop}.sim_p50"] = ("s", "lower")
    for name, unit, better in TRACE_SUMMARY:
        table[name] = (unit, better)
    for metric in END_TO_END:
        if metric.across_seeds is None and metric.name != "failed_ops_share":
            table[metric.name] = (metric.unit, metric.better)
    return table
