"""Quickstart: deploy Figure 1 and watch DRAMS monitor a federation.

Builds the paper's architecture — two clouds, member tenants with edge
PEPs, an infrastructure tenant hosting the PDP/PRP and the Analyser, a
private smart-contract blockchain spanning every tenant — runs a small
workload through it, and prints what the monitoring system recorded.

Run:  python examples/quickstart.py
"""

from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import healthcare_scenario


def main() -> None:
    # 1. Build the monitored federation (Figure 1) for the healthcare
    #    scenario: hospitals in two clouds sharing records and lab results.
    stack = MonitoredFederation.build(healthcare_scenario(), clouds=2, seed=7)

    print("=== Federation topology (Figure 1) ===")
    description = stack.federation.describe()
    for cloud in description["clouds"]:
        print(f"  {cloud['name']}: sections {', '.join(cloud['sections'])}")
    for name, tenant in description["tenants"].items():
        hosts = ", ".join(tenant["hosts"]) or "(none)"
        print(f"  tenant {name} [{tenant['kind']}]: {hosts}")

    # 2. Start monitoring (mining, timeout ticks, analyser sweeps).
    stack.start()

    # 3. Issue 25 access requests drawn from the scenario's workload model.
    stack.issue_requests(25)

    # 4. Run the simulation for two simulated minutes.
    stack.run(until=120.0)

    # 5. What happened?
    print("\n=== Access outcomes ===")
    granted = sum(1 for outcome in stack.outcomes if outcome.granted)
    print(f"  requests enforced: {len(stack.outcomes)}  granted: {granted}  "
          f"denied: {len(stack.outcomes) - granted}")
    latencies = sorted(stack.access_latencies())
    print(f"  access latency p50: {latencies[len(latencies) // 2] * 1000:.1f} ms")

    print("\n=== DRAMS monitoring ===")
    stats = stack.drams.stats()
    print(f"  chain height: {stats['chain_height']}  "
          f"(reorgs: {stats['reorgs']})")
    print(f"  log entries on chain: {stats['monitor']['logs']} "
          f"({stats['logs_submitted']} submitted by the LIs)")
    print(f"  flows verified by the smart contract: "
          f"{stats['monitor']['verified']}")
    print(f"  decisions re-checked by the analyser: "
          f"{stats['analyser_checked']}")
    print(f"  security alerts: {stats['monitor']['alerts']} "
          f"(an honest run should report 0)")

    commit = stack.drams.commit_latencies()
    print(f"  log commit latency (submit → final): "
          f"mean {sum(commit) / len(commit):.2f} s over {len(commit)} entries")

    print("\n=== Per-tenant logging interfaces ===")
    rows = []
    for tenant, li in sorted(stack.drams.interfaces.items()):
        rows.append({
            "tenant": tenant,
            "logs_submitted": li.logs_submitted,
            "alerts_seen": len(li._seen_alerts),
            "address": li.address,
        })
    print(format_table(rows))


if __name__ == "__main__":
    main()
