"""E18 — scenario generator: spec sweep and streaming memory.

Two arms pin the scenariogen PR's claims:

1. **Spec sweep** — every preset :class:`ScenarioSpec` compiles, and the
   table records its shape and policy-document fingerprint (the value
   ``tests/test_scenariogen.py`` pins); a tree-synthesised spec passes
   the generator's validity report (all roles reachable, all classes
   readable, a permit path per tenant).
2. **Streaming memory** — a 10⁶-subject federation is built and driven
   through :meth:`MonitoredFederation.issue_stream`; the run completes
   with peak RSS bounded and no materialised outcome list.

The retired determinism arm (the tree-synthesised spec built and driven
twice replays the same ``fingerprint()``) keeps its last row in
``docs/scenariogen.md``; tier-1 holds the claim in
``tests/test_scenariogen.py::TestDeterminism::test_stack_rerun_is_bit_identical``,
the golden digests and the interleaved-runs test.

The scenario seed comes from the ``--scenario-seed`` pytest option
(``benchmarks/conftest.py``) and is recorded in ``BENCH_e18.json``.
``REPRO_BENCH_SMOKE=1`` shrinks the streaming arm for CI smoke runs.
"""

import os
import resource
import time

from benchmarks.common import write_json_report
from repro.crypto.hashing import hash_value
from repro.metrics.tables import format_table
from repro.metrics.windowed import WindowedMetrics
from repro.scenariogen import (
    ArrivalSpec,
    FederationShape,
    PopulationSpec,
    PRESET_SPECS,
    ScenarioSpec,
    TreeSpec,
    build_stack_from_spec,
    generate_scenario,
    validity_report,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
STREAM_SUBJECTS = 1_000_000
STREAM_REQUESTS = 5_000 if SMOKE else 50_000
STREAM_RATE = 2500.0
#: Peak-RSS ceiling for the whole process during the streaming arm.  A
#: materialised 10⁶-user run would hold every request and outcome; the
#: streaming path keeps one pending arrival and a bounded window ring.
RSS_BOUND_MB = 512.0

TREE_SPEC = ScenarioSpec(
    name="e18-tree",
    roles=("analyst", "operator", "auditor"),
    tree=TreeSpec(classes=4, depth=2, width=2, audited_fraction=0.5,
                  clearance_fraction=0.25, deny_tail_fraction=0.25),
    federation=FederationShape(clouds=2),
    population=PopulationSpec(subjects=40, resources=120),
    arrival=ArrivalSpec(rate=5.0),
    description="E18 tree-synthesis arm",
)

STREAM_SPEC = ScenarioSpec(
    name="e18-stream",
    roles=("analyst", "operator", "auditor"),
    tree=TreeSpec(classes=4, depth=1, width=2),
    federation=FederationShape(clouds=2),
    population=PopulationSpec(subjects=STREAM_SUBJECTS, resources=100_000),
    arrival=ArrivalSpec(rate=STREAM_RATE),
    description="E18 streaming-memory arm",
)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_e18_scenariogen(report, scenario_seed):
    lines = []

    # -- arm 1: preset sweep + validity ----------------------------------------
    sweep_rows = []
    for spec in PRESET_SPECS.values():
        compiled = generate_scenario(spec)
        documents = [compiled.policy_document, *compiled.policy_variants]
        sweep_rows.append({
            "preset": spec.name,
            "classes": len(spec.classes) if spec.classes else "tree",
            "subjects": compiled.workload.subjects,
            "resources": compiled.workload.resources,
            "rate_rps": compiled.workload.arrival_rate,
            "variants": len(compiled.policy_variants),
            "fingerprint": hash_value(documents)[:16],
        })
    lines.append(format_table(sweep_rows, title="E18 spec sweep: the ten presets"))

    validity = validity_report(TREE_SPEC, seed=scenario_seed)
    assert validity["ok"], validity
    lines.append(format_table([{
        "spec": TREE_SPEC.name,
        "roles_reachable": sum(validity["roles_reachable"].values()),
        "classes_readable": sum(validity["classes_readable"].values()),
        "tenant_permit_paths": sum(validity["tenant_permit_paths"].values()),
        "ok": validity["ok"],
    }], title="E18 validity: tree-synthesised spec"))

    # -- arm 2: streaming memory ------------------------------------------------
    built_at = time.perf_counter()
    stack = build_stack_from_spec(STREAM_SPEC, seed=scenario_seed,
                                  with_drams=False)
    stack.start()
    build_wall = time.perf_counter() - built_at
    rss_built = rss_mb()

    driven_at = time.perf_counter()
    handle = stack.issue_stream(STREAM_REQUESTS)
    stack.run(until=STREAM_REQUESTS / STREAM_RATE + 30.0)
    drive_wall = time.perf_counter() - driven_at
    rss_peak = rss_mb()

    summary = stack.run_summary()
    assert handle.issued == STREAM_REQUESTS
    assert summary["enforced"] == STREAM_REQUESTS, (
        f"streamed {handle.issued}, enforced only {summary['enforced']}")
    assert stack.outcomes == [], "streaming arm materialised outcomes"
    snapshot = handle.metrics.snapshot()
    assert len(snapshot["windows"]) <= WindowedMetrics.MAX_WINDOWS
    assert rss_peak < RSS_BOUND_MB, (
        f"peak RSS {rss_peak:.0f} MB breaches the {RSS_BOUND_MB:.0f} MB bound")
    lines.append(format_table([{
        "arm": "streaming",
        "subjects": STREAM_SUBJECTS,
        "requests": STREAM_REQUESTS,
        "grant_rate": summary["grant_rate"],
        "throughput_rps": round(STREAM_REQUESTS / drive_wall),
        "rss_built_mb": round(rss_built, 1),
        "rss_peak_mb": round(rss_peak, 1),
        "rss_bound_mb": RSS_BOUND_MB,
    }], title="E18 streaming: 10⁶-subject federation, constant memory"))

    write_json_report("e18", {
        "presets": len(sweep_rows),
        "preset_fingerprints": {r["preset"]: r["fingerprint"] for r in sweep_rows},
        "validity_ok": validity["ok"],
        "stream_subjects": STREAM_SUBJECTS,
        "stream_requests": STREAM_REQUESTS,
        "stream_enforced": summary["enforced"],
        "stream_grant_rate": summary["grant_rate"],
        "stream_build_wall_s": round(build_wall, 3),
        "stream_drive_wall_s": round(drive_wall, 3),
        "stream_throughput_rps": round(STREAM_REQUESTS / drive_wall, 1),
        "rss_built_mb": round(rss_built, 2),
        "rss_peak_mb": round(rss_peak, 2),
        "rss_bound_mb": RSS_BOUND_MB,
        "stream_windows_retained": len(snapshot["windows"]),
    })
    report("e18_scenariogen", "\n\n".join(lines))
