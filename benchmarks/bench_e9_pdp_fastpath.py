"""E9 — PDP fast path: decisions/sec with cache and target index on/off.

The PDP is the throughput ceiling of the whole federation (every access
request funnels through it), so this experiment measures raw decision
throughput over each scenario's real workload under four configurations:

- **baseline** — plain tree-walking evaluation,
- **index** — target index on (skip provably non-matching branches),
- **cache** — decision cache on (footprint-projected LRU),
- **cache+index** — the deployed fast path.

Shape assertion: the full fast path clears ≥2× baseline throughput on at
least one scenario.  That every arm decides exactly as the baseline does
is pinned in tier-1 (``tests/test_fastpath_differential.py``), not here.
Workloads repeat over ``PASSES`` passes, as real access traffic repeats
(subject, resource, action) triples.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os
import time

from repro.accesscontrol.context_handler import ContextHandler
from repro.accesscontrol.decision_cache import DecisionCache
from repro.common.rng import SeededRng
from repro.metrics.tables import format_table
from repro.workload.generator import RequestGenerator
from repro.workload.scenarios import all_scenarios
from repro.xacml.context import RequestContext
from repro.xacml.index import attribute_footprint
from repro.xacml.parser import policy_from_dict
from repro.xacml.pdp import PolicyDecisionPoint

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REQUESTS = 120 if SMOKE else 400
PASSES = 3 if SMOKE else 5

ARMS = (
    ("baseline", False, False),
    ("index", True, False),
    ("cache", False, True),
    ("cache+index", True, True),
)


def workload_contents(scenario, count=REQUESTS, seed=91):
    """PEP-shaped request contexts; resources get an owner tenant so the
    scenarios' home-tenant locality rules take both branches."""
    generator = RequestGenerator(scenario.workload, SeededRng(seed, "bench-e9"))
    handlers = [ContextHandler("tenant-1"), ContextHandler("tenant-2")]
    contents = []
    for generated in generator.requests(count):
        resource = dict(generated.resource)
        resource.setdefault("owner-tenant", f"tenant-{1 + (generated.index // 2) % 2}")
        contents.append(
            handlers[generated.index % 2].build(
                subject=generated.subject,
                resource=resource,
                action=generated.action,
                now=generated.at,
            )
        )
    return contents


def run_arm(scenario, contents, use_index, use_cache):
    root = policy_from_dict(scenario.policy_document)
    pdp = PolicyDecisionPoint(root, indexed=use_index)
    footprint = attribute_footprint(root) if use_cache else None
    cache = DecisionCache() if use_cache else None
    start = time.perf_counter()
    for _ in range(PASSES):
        for content in contents:
            if cache is not None:
                key = cache.request_key("fp", content, footprint)
                if cache.get(key) is None:
                    response = pdp.evaluate(RequestContext.from_dict(content)).to_dict()
                    cache.put(key, "fp", response)
            else:
                pdp.evaluate(RequestContext.from_dict(content)).to_dict()
    elapsed = time.perf_counter() - start
    rate = PASSES * len(contents) / elapsed if elapsed > 0 else float("inf")
    return rate, cache, pdp


def test_e9_pdp_fastpath(report):
    rows = []
    fastpath_speedups = {}
    for scenario in all_scenarios():
        contents = workload_contents(scenario)
        base_rate = None
        for arm, use_index, use_cache in ARMS:
            rate, cache, pdp = run_arm(scenario, contents, use_index, use_cache)
            base_rate = base_rate or rate  # ARMS lists the baseline first
            speedup = rate / base_rate
            if arm == "cache+index":
                fastpath_speedups[scenario.name] = speedup
            skipped = "-"
            if pdp.index is not None:
                stats = pdp.index.stats
                walked = sum(stats.as_dict().values())
                total_skipped = stats.rules_skipped + stats.children_skipped
                skipped = round(total_skipped / walked, 2) if walked else 0.0
            rows.append(
                {
                    "scenario": scenario.name,
                    "arm": arm,
                    "kdecisions_per_s": round(rate / 1000, 1),
                    "speedup": round(speedup, 2),
                    "cache_hit_rate": round(cache.hit_rate(), 2) if cache is not None else "-",
                    "skipped_frac": skipped,
                }
            )
    mode = ", smoke" if SMOKE else ""
    table = format_table(
        rows, title=f"E9: PDP fast path ({REQUESTS} requests x {PASSES} passes{mode})"
    )
    report("e9_pdp_fastpath", table)

    # Acceptance: >=2x decisions/sec on at least one scenario, full fast
    # path; smoke runs (noisy CI machines, shrunken workloads) get a
    # relaxed floor.
    floor = 1.3 if SMOKE else 2.0
    best = max(fastpath_speedups.values())
    assert best >= floor, f"fast path speedups too small: {fastpath_speedups}"
