"""E14 — self-driving elastic decision plane: the autoscale controller.

E13 proved that *scripted* membership changes convert into throughput:
a harness that knows the flash crowd's schedule adds shards between
waves and clears the backlog faster.  Real federations do not get the
schedule in advance.  This experiment closes the loop: an
:class:`~repro.accesscontrol.autoscale.AutoscaleController` watches the
plane's own utilisation signal (busy-cursor backlog per shard) and
actuates ``add_shard``/``drain_shard`` itself, under a target band with
hysteresis.

Two workloads, two questions:

- ``elastic-scale`` (the E13 flash crowd): can the controller match a
  *clairvoyant* script?  The script knows the waves arrive at 0.5/1.0/
  1.5 s and adds two shards between them; the controller only sees its
  backlog signal.
- ``diurnal`` (sinusoidal municipal e-services): does the controller
  give capacity *back*?  A static pool sized for the peak burns shards
  through the trough; the controller should clear the same decisions
  with strictly fewer shard-seconds.

Shape assertions:

- **reactive matches clairvoyant**: the autoscaled pool (start 2, bounds
  2..6) clears the flash crowd at least as fast as the E13 script
  (2→4 at a known instant);
- **scale-down pays**: on the diurnal workload the autoscaled pool
  finishes the same number of decisions as static-4 while consuming
  fewer shard-seconds (integral of live shards over the run);
- **monitoring never gaps**: a full DRAMS run over controller-initiated
  membership changes (at least one add *and* one drain, timed by the
  controller, not the harness) raises zero alerts and the Analyser
  re-derives every decision.

That the controller's view is pure observation (a controller that can
never fire, ``min_shards == max_shards``, leaves the run bit-identical to
the same plane with no controller) is pinned in tier-1:
``tests/test_neutrality.py::test_observer_neutrality[pinned_autoscaler]``.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI smoke runs.
"""

import os

from benchmarks.common import bench_drams_config, write_json_report
from repro.accesscontrol.autoscale import AutoscaleController, CrossPepLoadView
from repro.accesscontrol.plane import ShardedPdpPlane
from repro.common.ids import reset_id_counter
from repro.harness import MonitoredFederation
from repro.metrics.tables import format_table
from repro.workload.scenarios import diurnal_scenario, elastic_scale_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: E13's saturation constraint carries over: the flash-crowd waves must
#: overwhelm a 2-shard pool or there is nothing for the controller to
#: react to.
WAVE_SIZE = 100 if SMOKE else 150
WAVE_STARTS = (0.5, 1.0, 1.5)
SCRIPT_AT = 0.8  # the clairvoyant script's membership instant (E13)
DIURNAL_REQUESTS = 300 if SMOKE else 900
MONITORED_REQUESTS = 100 if SMOKE else 200
AUTOSCALE_FLOOR = 1.0  # autoscaled vs scripted-elastic, simulated time

#: Same uniform service model as E13: 10 ms per decision, serialized,
#: so shard occupancy is real and membership converts into makespan.
SERVICE_KWARGS = {
    "base_processing_delay": 0.01,
    "per_rule_delay": 0.0,
    "serialize_evaluations": True,
}


def controller(**overrides):
    """A reactive controller tuned for the 10 ms service model."""
    defaults = dict(
        min_shards=2,
        max_shards=6,
        high_water=0.05,
        low_water=0.005,
        decide_interval=0.05,
        up_cooldown=0.1,
        down_cooldown=1.0,
        down_samples=5,
    )
    defaults.update(overrides)
    return AutoscaleController(**defaults)


def track_shard_seconds(plane, sim):
    """Record membership changes; returns (events, integrate(until))."""
    start_count = len(plane.services)
    events = []

    def listener(event, service):
        events.append((sim.now, event))

    plane.on_membership(listener)

    def integrate(until):
        # Draining shards keep their event loop (and probes) until
        # "removed", so they count as live capacity until then.
        total, active, at = 0.0, start_count, 0.0
        for when, event in events:
            if event == "draining":
                continue
            if when >= until:
                break
            total += active * (when - at)
            active += 1 if event == "added" else -1
            at = when
        return total + active * (until - at)

    return events, integrate


def run_flash_crowd_arm(plane, *, add_shards=0, autoscaler=None):
    """The E13 waved flash crowd; membership scripted, self-driven or off."""
    reset_id_counter()
    stack = MonitoredFederation.build(
        elastic_scale_scenario(),
        clouds=2,
        seed=91,
        with_drams=False,
        plane=plane,
        autoscaler=autoscaler,
    )
    total = 0
    for start in WAVE_STARTS:
        stack.issue_requests(WAVE_SIZE, start_at=start)
        total += WAVE_SIZE
    for _ in range(add_shards):
        stack.add_pdp_shard(at=SCRIPT_AT)
    stack.run(until=600.0)
    assert len(stack.outcomes) == total, "arm lost requests"
    timeouts = sum(pep.timeouts for pep in stack.peps.values())
    assert timeouts == 0, f"arm timed out {timeouts} requests"
    makespan = max(o.enforced_at for o in stack.outcomes) - min(
        o.requested_at for o in stack.outcomes
    )
    return {
        "rate": total / makespan if makespan > 0 else float("inf"),
        "makespan": makespan,
        "shards_now": len(plane.services),
        "scale_ups": 0 if autoscaler is None else autoscaler.scale_ups,
        "scale_downs": 0 if autoscaler is None else autoscaler.scale_downs,
        "failovers": sum(pep.failovers for pep in stack.peps.values()),
        "churn_reroutes": sum(pep.churn_reroutes for pep in stack.peps.values()),
    }


def run_diurnal_arm(plane, *, autoscaler=None, seed=95):
    """One diurnal cycle; returns decisions finished and shard-seconds."""
    reset_id_counter()
    stack = MonitoredFederation.build(
        diurnal_scenario(),
        clouds=2,
        seed=seed,
        with_drams=False,
        plane=plane,
        autoscaler=autoscaler,
    )
    events, integrate = track_shard_seconds(plane, stack.sim)
    stack.issue_requests(DIURNAL_REQUESTS, start_at=0.1)
    stack.run(until=600.0)
    assert len(stack.outcomes) == DIURNAL_REQUESTS, "diurnal arm lost requests"
    assert sum(pep.timeouts for pep in stack.peps.values()) == 0
    done_at = max(o.enforced_at for o in stack.outcomes)
    # Cost is held capacity over the *day*, not over the busy window: a
    # static pool sized for the peak keeps burning shards through the
    # trough, which is exactly what the controller is supposed to shed.
    horizon = max(done_at, stack.scenario.workload.arrival_period)
    latencies = sorted(o.latency for o in stack.outcomes)
    return {
        "decisions": len(stack.outcomes),
        "shard_seconds": integrate(horizon),
        "done_at": done_at,
        "p95_latency": latencies[int(0.95 * (len(latencies) - 1))],
        "membership_events": len(events),
        "scale_ups": 0 if autoscaler is None else autoscaler.scale_ups,
        "scale_downs": 0 if autoscaler is None else autoscaler.scale_downs,
    }


def run_monitored_arm():
    """Full DRAMS over controller-initiated churn; nothing may gap."""
    reset_id_counter()
    plane = ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS))
    auto = controller(min_shards=1, max_shards=3, down_cooldown=0.5, down_samples=4)
    stack = MonitoredFederation.build(
        diurnal_scenario(),
        clouds=2,
        seed=81,
        with_drams=True,
        drams_config=bench_drams_config(),
        plane=plane,
        autoscaler=auto,
    )
    stack.start()
    stack.issue_requests(MONITORED_REQUESTS, start_at=0.1)
    stack.run(until=120.0)
    assert len(stack.outcomes) == MONITORED_REQUESTS, "monitored arm lost requests"
    assert sum(pep.timeouts for pep in stack.peps.values()) == 0
    # The point of the arm: membership changed because the *controller*
    # said so — the harness scripted nothing.
    assert auto.scale_ups >= 1, "controller never scaled up under the peak"
    assert auto.scale_downs >= 1, "controller never gave capacity back"
    analyser = stack.drams.analyser
    alerts = stack.drams.alerts.count()
    assert alerts == 0, f"controller churn raised {alerts} alerts"
    assert analyser.checked == MONITORED_REQUESTS, (
        f"analyser checked {analyser.checked}/{MONITORED_REQUESTS} "
        "decisions across controller churn"
    )
    assert analyser.pending_correlations == 0
    assert not plane.draining(), "a drained shard never quiesced"
    return {
        "requests": MONITORED_REQUESTS,
        "checked": analyser.checked,
        "alerts": alerts,
        "scale_ups": auto.scale_ups,
        "scale_downs": auto.scale_downs,
        "rebalances": plane.rebalances,
    }


def test_e14_autoscale(report):
    # -- flash crowd: reactive controller vs clairvoyant script ------------
    arms = {
        "static-2": lambda: (
            ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
            {},
        ),
        "scripted-2to4": lambda: (
            ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
            {"add_shards": 2},
        ),
        "autoscaled": lambda: (
            ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
            {"autoscaler": controller()},
        ),
        "autoscaled-gossip": lambda: (
            ShardedPdpPlane(
                shards=2,
                queue_aware=True,
                service_kwargs=dict(SERVICE_KWARGS),
                load_view=CrossPepLoadView(gossip_interval=0.02, horizon=0.05),
            ),
            {"autoscaler": controller()},
        ),
    }
    rows = []
    json_rows = []
    results = {}
    for arm, factory in arms.items():
        plane, kwargs = factory()
        result = run_flash_crowd_arm(plane, **kwargs)
        results[arm] = result
        rows.append(
            {
                "arm": arm,
                "sim_decisions_per_s": round(result["rate"], 1),
                "makespan_s": round(result["makespan"], 2),
                "scale_ups": result["scale_ups"],
                "scale_downs": result["scale_downs"],
                "failovers": result["failovers"],
                "churn_reroutes": result["churn_reroutes"],
            }
        )
        json_rows.append(
            {
                "arm": arm,
                "sim_decisions_per_s": result["rate"],
                "makespan_s": result["makespan"],
                "scale_ups": result["scale_ups"],
                "scale_downs": result["scale_downs"],
                "failovers": result["failovers"],
                "churn_reroutes": result["churn_reroutes"],
            }
        )

    # -- diurnal: give capacity back ---------------------------------------
    static4 = run_diurnal_arm(
        ShardedPdpPlane(shards=4, service_kwargs=dict(SERVICE_KWARGS))
    )
    scaled = run_diurnal_arm(
        ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
        autoscaler=controller(min_shards=1, max_shards=4),
    )

    monitored = run_monitored_arm()

    mode = ", smoke" if SMOKE else ""
    table = format_table(
        rows,
        title=(
            f"E14: self-driving decision plane ({3 * WAVE_SIZE} requests in "
            f"{len(WAVE_STARTS)} waves, elastic-scale, serialized "
            f"evaluators{mode})"
        ),
    )
    report("e14_autoscale", table)
    diurnal_rows = [
        {
            "arm": arm,
            "decisions": r["decisions"],
            "shard_seconds": round(r["shard_seconds"], 2),
            "p95_latency_s": round(r["p95_latency"], 3),
            "scale_ups": r["scale_ups"],
            "scale_downs": r["scale_downs"],
        }
        for arm, r in (("static-4", static4), ("autoscaled", scaled))
    ]
    report(
        "e14_autoscale_diurnal",
        format_table(
            diurnal_rows,
            title=(
                f"E14: diurnal scale-down ({DIURNAL_REQUESTS} requests over a "
                f"sinusoidal day, 10 ms serialized evaluators{mode})"
            ),
        ),
    )

    reactive_vs_script = results["autoscaled"]["rate"] / results["scripted-2to4"]["rate"]
    shard_second_savings = 1.0 - scaled["shard_seconds"] / static4["shard_seconds"]
    write_json_report(
        "e14",
        {
            "rows": json_rows,
            "autoscaled_speedup_vs_scripted": reactive_vs_script,
            "autoscale_floor": AUTOSCALE_FLOOR,
            "diurnal": {
                "rows": diurnal_rows,
                "shard_second_savings": shard_second_savings,
            },
            "monitored_churn": monitored,
        },
    )

    # Acceptance: the reactive controller matches the clairvoyant script …
    assert reactive_vs_script >= AUTOSCALE_FLOOR, (
        f"autoscaled cleared the flash crowd only {reactive_vs_script:.3f}x "
        "as fast as the scripted elastic arm"
    )
    assert results["autoscaled"]["scale_ups"] >= 1
    # … and on the diurnal workload it finishes the same decisions with
    # strictly fewer shard-seconds than a peak-sized static pool.
    assert scaled["decisions"] == static4["decisions"]
    assert scaled["scale_downs"] >= 1, "controller never scaled down the trough"
    assert scaled["shard_seconds"] < static4["shard_seconds"], (
        f"autoscaled burned {scaled['shard_seconds']:.1f} shard-seconds vs "
        f"static-4's {static4['shard_seconds']:.1f}"
    )
