"""The four workloads, driven through :mod:`bench.adapter` and nothing else.

Each workload builds its stack, arms its requests (set-up), drives the
simulator inside :meth:`Run.timed` (the only wall-clock that counts
towards ``decisions_per_s``), and then — outside the timed region —
checks the outputs and folds what it saw into a :class:`Tally`.

Arrivals are an open loop in simulated time: Poisson at the spec's rate,
each request dispatched at its due time, so the PEP's request→enforcement
latency is timed from when the request was due.  In wall-clock the run is
batch work: throughput is decisions completed per second at a stated N.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

from bench import adapter as program
from bench import metrics as M
from bench.tracing import ROOT_SPAN

#: Simulated seconds between completion checks while a run drains.
POLL = 0.25
#: Oracle re-check sample on the unmonitored stream (monitored runs
#: re-check every decision).
ORACLE_SAMPLE = 2000

STORM_ATTACK_AT = 1.2
STORM_REPLAY_AT = 4.0
STORM_HORIZON = 60.0
#: Waves are pinned to the fault timeline so every fault window sees
#: live decisions (the preset's arrival process alone would finish first).
STORM_WAVE_STARTS = (0.1, 0.9, 1.4, 2.4, 3.2)


# -- the benchmark's own configuration ------------------------------------------


def drams_config(clouds: int, timeout_blocks: int):
    """Full DRAMS at a 0.5 s block interval whatever the cloud count.

    One chain node per member tenant, one for the infrastructure tenant
    and the Analyser's own: ``clouds + 2`` miners share the hashrate.
    ``timeout_blocks`` is set per workload so an honest run raises no
    alert.
    """
    interval = 0.5
    bits = 10
    return program.DramsConfig(
        chain=program.BlockchainConfig(
            chain_id="bench-chain",
            difficulty_bits=bits,
            target_block_interval=interval,
            retarget_window=0,
            pow_mode="simulated",
            confirmations=2,
        ),
        timeout_blocks=timeout_blocks,
        tick_interval=1.0,
        analyser_sweep_interval=1.0,
        node_hashrate=2 ** bits / (interval * (clouds + 2)),
        use_tpm=False,
    )


# -- clocks ----------------------------------------------------------------------


class Run:
    """One child's clocks and, in the traced pass, its span recorder."""

    def __init__(self, seed: int, n: int, started: float, recorder=None) -> None:
        self.seed = seed
        self.n = n
        self.started = started
        self.recorder = recorder
        self.timed_s = 0.0
        self._last_timed_end = started

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    @contextmanager
    def timed(self):
        span = self.recorder.span(ROOT_SPAN) if self.traced else nullcontext()
        begin = perf_counter()
        with span:
            yield
        end = perf_counter()
        self.timed_s += end - begin
        self._last_timed_end = end

    def setup_s(self) -> float:
        """Everything from child start to the last timed region's end
        that was not timed: imports, builds, arming (all sub-runs)."""
        return self._last_timed_end - self.started - self.timed_s

    @contextmanager
    def verifying(self):
        """The benchmark's own checks are not the program's work."""
        if self.traced:
            self.recorder.enabled = False
        try:
            yield
        finally:
            if self.traced:
                self.recorder.enabled = True


# -- helpers ---------------------------------------------------------------------


def percentile(ordered: list, fraction: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def drive(stack, done, horizon: float) -> tuple:
    """Advance in ``POLL`` steps until ``done()`` or the horizon.

    Returns ``(events executed, simulated time reached)``.
    """
    events = 0
    now = stack.sim.now
    while not done() and now < horizon:
        now += POLL
        events += stack.run(until=now)
    return events, now


class Tally:
    """What the finished stacks of one child add up to."""

    def __init__(self) -> None:
        self.requests = 0
        self.latencies: list = []
        self.commits: list = []
        self.decisions: list = []
        self.alert_types: Counter = Counter()
        self.chain_heads: list = []
        self.hops: dict = {hop: [] for hop in M.HOPS}
        self.sums: Counter = Counter()
        self.failures: Counter = Counter()
        #: Simulated-time metrics only this workload has.
        self.extra: dict = {}
        self.info: dict = {}

    def absorb(self, stack, requests: int, events: int) -> None:
        self.requests += requests
        outcomes = stack.outcomes
        self.latencies.extend(outcome.latency for outcome in outcomes)
        self.decisions.extend(
            (digest(outcome.request.content), outcome.decision.decision,
             digest(outcome.decision.obligations), outcome.decision.status_code)
            for outcome in outcomes)
        self.failures["not_enforced"] += max(0, requests - len(outcomes))
        sums = self.sums
        network = stack.federation.network.stats
        sums["bytes_sent"] += network.bytes_sent
        sums["msgs"] += network.sent
        sums["dropped"] += network.dropped
        sums["dropped_dead"] += network.dropped_dead
        sums["events"] += events
        for pep in stack.peps.values():
            sums["timeouts"] += pep.timeouts
            sums["failovers"] += pep.failovers
            sums["churn_reroutes"] += pep.churn_reroutes
        for cache in stack.plane.stats()["caches"]:
            sums["cache_hits"] += cache["hits"]
            sums["cache_lookups"] += cache["hits"] + cache["misses"]
        drams = stack.drams
        if drams is not None:
            self.commits.extend(drams.commit_latencies())
            chain = drams.reference_chain()
            blocks = chain.main_chain()
            sums["blocks"] += chain.height
            sums["reorgs"] += chain.reorgs
            sums["block_txs"] += sum(len(block.transactions) for block in blocks)
            sums["chain_bytes"] += sum(block.body_size_bytes() for block in blocks)
            sums["logs"] += sum(li.logs_submitted for li in drams.interfaces.values())
            sums["checked"] += drams.analyser.checked
            self.alert_types.update(alert.alert_type.value for alert in drams.alerts.all())
            self.chain_heads.append(chain.head.hash)
            for consumer in drams.light_clients.values():
                sums["lc_accepted"] += consumer.receipts_accepted
                sums["lc_rejected"] += consumer.receipts_rejected
                sums["lc_outstanding"] += consumer.outstanding
        if stack.telemetry is not None:
            stack.telemetry.flush()
            paths = stack.telemetry.critical_paths()
            for trace_id in paths.decision_traces():
                shares = paths.attribution(trace_id)
                for hop, values in self.hops.items():
                    values.append(shares.get(hop, 0.0))

    # -- results ---------------------------------------------------------------

    def fingerprint(self) -> str:
        return digest([sorted(self.decisions), sorted(self.alert_types.items())])

    def sim_metrics(self, monitored: bool) -> dict:
        latencies = sorted(self.latencies)
        n = self.requests
        out = {
            "access_latency_sim_p50_ms": 1000.0 * percentile(latencies, 0.50),
            "access_latency_sim_p95_ms": 1000.0 * percentile(latencies, 0.95),
            "wire_kb_per_decision": self.sums["bytes_sent"] / n / 1024.0,
        }
        if monitored:
            commits = sorted(self.commits)
            out["log_commit_sim_p50_s"] = percentile(commits, 0.50)
            out["log_commit_sim_p95_s"] = percentile(commits, 0.95)
            out["chain_kb_per_decision"] = self.sums["chain_bytes"] / n / 1024.0
        out.update(self.extra)
        return out

    def counters(self) -> dict:
        sums, n = self.sums, self.requests
        return {
            "simnet.msgs_per_decision": sums["msgs"] / n,
            "simnet.events_per_decision": sums["events"] / n,
            "simnet.dropped": sums["dropped"],
            "simnet.dropped_dead": sums["dropped_dead"],
            "blockchain.blocks": sums["blocks"],
            "blockchain.reorgs": sums["reorgs"],
            "blockchain.txs_per_block_mean": (
                sums["block_txs"] / sums["blocks"] if sums["blocks"] else 0.0),
            "drams.logs_per_decision": sums["logs"] / n,
            "drams.checked_share": sums["checked"] / n,
            "drams.alerts_total": sum(self.alert_types.values()),
            "accesscontrol.timeouts": sums["timeouts"],
            "accesscontrol.failovers": sums["failovers"],
            "accesscontrol.churn_reroutes": sums["churn_reroutes"],
            "accesscontrol.cache_hit_ratio": (
                sums["cache_hits"] / sums["cache_lookups"] if sums["cache_lookups"] else 0.0),
            "lightclient.accepted": sums["lc_accepted"],
            "lightclient.rejected": sums["lc_rejected"],
            "lightclient.outstanding": sums["lc_outstanding"],
            "faults.events_applied": sums["faults_applied"],
            "faults.decisions_rerouted": sums["faults_rerouted"],
        }

    def hop_metrics(self) -> dict:
        return {f"hop.{hop}.sim_p50": percentile(sorted(values), 0.50)
                for hop, values in self.hops.items()}


# -- honest workloads ------------------------------------------------------------


def _honest(run: Run, spec, *, timeout_blocks=None, plane=None, stream=False) -> dict:
    """One honest stack: N requests, run until all are enforced and, when
    monitored, re-checked by the Analyser."""
    monitored = timeout_blocks is not None
    build = {"plane": plane, "telemetry": run.traced}
    if monitored:
        build["drams_config"] = drams_config(spec.federation.clouds, timeout_blocks)
    else:
        build["with_drams"] = False
    program.reset_id_counter()
    stack = program.build_stack_from_spec(spec, seed=run.seed, **build)
    stack.start()
    n = run.n
    if stream:
        handle = stack.issue_stream(n, record_outcomes=True)
    else:
        issued = stack.issue_requests(n)
    drams = stack.drams

    def audited() -> bool:
        return len(stack.outcomes) >= n and (drams is None or drams.analyser.checked >= n)

    def committed() -> bool:
        return drams is None or len(drams.commit_latencies()) >= sum(
            li.logs_submitted for li in drams.interfaces.values())

    horizon = 1.5 * n / spec.arrival.rate + 150.0
    with run.timed():
        events, audited_at = drive(stack, audited, horizon)
        # Quiescence: every submitted log is final on its LI's node too.
        more, _ended = drive(stack, committed, horizon)
        events += more

    with run.verifying():
        tally = Tally()
        tally.absorb(stack, n, events)
        last_arrival = handle.last_at if stream else issued[-1].at
        if monitored:
            tally.extra["audit_drain_sim_s"] = audited_at - last_arrival
            tally.failures["not_rechecked"] += max(0, n - drams.analyser.checked)
            tally.failures["log_not_final"] += 0 if committed() else 1
            # An honest run must raise no alert at all.
            tally.failures["honest_alerts"] += sum(tally.alert_types.values())
        outcomes = stack.outcomes
        if not monitored and len(outcomes) > ORACLE_SAMPLE:
            outcomes = random.Random(run.seed).sample(outcomes, ORACLE_SAMPLE)
        oracle = program.DecisionOracle(stack.scenario.policy_document)
        tally.failures["wrong_decision"] += sum(
            1 for outcome in outcomes
            if oracle.expected_decision(outcome.request.content) != outcome.decision.decision)
        tally.info["oracle_rechecked"] = len(outcomes)
    return _result(run, tally, monitored, attempted=n)


def steady_monitored(run: Run) -> dict:
    spec = program.replace(program.preset_spec("federation-scale"),
                           arrival=program.ArrivalSpec(rate=60.0))
    return _honest(run, spec, timeout_blocks=10)


def unmonitored_stream(run: Run) -> dict:
    spec = program.replace(program.preset_spec("federation-scale"),
                           arrival=program.ArrivalSpec(rate=2500.0))
    return _honest(run, spec, stream=True)


def burst_monitored_4c(run: Run) -> dict:
    spec = program.replace(program.preset_spec("federation-scale"),
                           arrival=program.ArrivalSpec(rate=2500.0),
                           federation=program.FederationShape(clouds=4))
    return _honest(run, spec, timeout_blocks=60, plane=program.ShardedPdpPlane(shards=4))


# -- storm-attacked --------------------------------------------------------------


def _storm_plan(shard_a: str, shard_b: str):
    """The E15 storm.  Windows are disjoint per victim, so every PEP
    keeps one reachable shard at all times."""
    return program.FaultPlan(
        name="partition-storm",
        events=(
            program.partition(["pep@tenant-2"], [shard_a], at=0.6, heal_at=1.8),
            program.crash("bcnode@tenant-2", at=1.0, restart_at=2.0),
            program.crash(shard_b, at=2.2, restart_at=3.0),
        ),
    )


def _policy_variant(document: dict, generation: int) -> dict:
    """A fingerprint-distinct, decision-identical policy revision."""
    variant = dict(document)
    variant["description"] = f"{document.get('description', '')} [rev {generation}]"
    return variant


def _storm_sub_run(run: Run, tally: Tally, base, index: int, attack_name: str) -> dict:
    seed = 1000 * run.seed + index
    spec = program.replace(base, attacks=(attack_name,))
    plane = program.ShardedPdpPlane(shards=2)
    program.reset_id_counter()
    stack = program.build_stack_from_spec(
        spec,
        seed=seed,
        drams_config=drams_config(spec.federation.clouds, 10),
        plane=plane,
        policy_plane=program.ReplicatedPrpPlane(propagation_delay=0.2,
                                                propagation_jitter=0.05),
        light_clients=True,
        pep_kwargs={"request_timeout": 1.0,
                    "backoff": program.RetryBackoff(base=0.2, cap=0.5)},
        telemetry=run.traced,
    )
    stack.start()
    shard_a, shard_b = (service.address for service in plane.services)
    controller = stack.inject_faults(_storm_plan(shard_a, shard_b))
    adversary = program.Adversary(stack.drams)
    (attack,) = program.default_attacks(spec, seed=seed)
    adversary.launch(attack, at=STORM_ATTACK_AT)
    if hasattr(attack, "replay_now"):
        # The replay is a discrete act, not an installed interceptor:
        # fire it after the storm heals, with the captured envelope.
        stack.sim.schedule_at(STORM_REPLAY_AT, lambda: attack.replay_now(
            stack.drams, {"subject-id": "mallory", "role": base.roles[1]}))
    for start in STORM_WAVE_STARTS:
        stack.issue_requests(run.n, start_at=start)
    if attack_name == "stale-policy-replay":
        # A frozen replica only shows once the federation has published
        # past the staleness bound.  Churn in every sub-run would raise
        # policy-churn alerts no attack accounts for.
        for generation in (1, 2, 3):
            stack.publish_policy(
                _policy_variant(stack.scenario.policy_document, generation),
                at=1.4 + 0.4 * generation)
    requests = len(STORM_WAVE_STARTS) * run.n

    with run.timed():
        events = stack.run(until=STORM_HORIZON)

    with run.verifying():
        tally.absorb(stack, requests, events)
        record = adversary.records()[0]
        slos = controller.recorder.slos()
        tally.sums["faults_applied"] += len(controller.applied)
        tally.sums["faults_rerouted"] += slos["pep"]["decisions_rerouted"]
        failures = tally.failures
        failures["attack_undetected"] += 0 if record.detected else 1
        failures["false_positive_alerts"] += len(adversary.false_positives())
        failures["recovery_incomplete"] += slos["watches_outstanding"]
        # Receipts the attack itself made impossible (a circumvented PDP
        # logs no decision) are the attack's doing, not a light-client fault.
        excused = set(attack.affected_correlations)
        for tenant, consumer in stack.drams.light_clients.items():
            rejected = {correlation for correlation, _reason in consumer.rejections}
            watched = {outcome.request.correlation() for outcome in stack.outcomes
                       if outcome.request.origin_tenant == tenant}
            failures["receipt_rejected"] += len(rejected - excused)
            failures["receipt_outstanding"] += len(
                watched - set(consumer.receipts) - rejected - excused)
        node = stack.drams.nodes["tenant-2"]
        reference = stack.drams.reference_chain()
        on_one_chain = (reference.has_block(node.chain.head.hash)
                        or node.chain.has_block(reference.head.hash))
        failures["rejoined_node_forked"] += 0 if (on_one_chain and not node.crashed) else 1
    return {"attack": attack_name, "detected": record.detected,
            "detection_latency": record.detection_latency, "max_ttr": slos["max_ttr"]}


def storm_attacked(run: Run) -> dict:
    base = program.replace(program.preset_spec("partition-storm"),
                           federation=program.FederationShape(clouds=2))
    tally = Tally()
    rows = [_storm_sub_run(run, tally, base, index, name)
            for index, name in enumerate(program.ATTACK_CATALOGUE)]
    with run.verifying():
        detected = sorted(row["detection_latency"] for row in rows if row["detected"])
        tally.extra["detect_latency_sim_p50_s"] = percentile(detected, 0.50)
        tally.extra["detect_latency_sim_max_s"] = detected[-1] if detected else 0.0
        tally.extra["max_ttr_sim_s"] = max(row["max_ttr"] for row in rows)
        tally.info["attacks"] = rows
    return _result(run, tally, True, attempted=tally.requests + len(rows))


# -- result ----------------------------------------------------------------------


WORKLOADS = {
    M.STEADY: steady_monitored,
    M.UNMONITORED: unmonitored_stream,
    M.BURST: burst_monitored_4c,
    M.STORM: storm_attacked,
}
assert tuple(WORKLOADS) == M.ALL


def _result(run: Run, tally: Tally, monitored: bool, attempted: int) -> dict:
    failures = {kind: count for kind, count in sorted(tally.failures.items())}
    return {
        "requests": tally.requests,
        "ops_attempted": attempted,
        "ops_failed": sum(failures.values()),
        "failures": failures,
        "fingerprint": tally.fingerprint(),
        "chain_heads": tally.chain_heads,
        "alerts": dict(sorted(tally.alert_types.items())),
        "run_s": run.timed_s,
        "setup_s": run.setup_s(),
        "sim": tally.sim_metrics(monitored),
        "counters": tally.counters(),
        "hops": tally.hop_metrics() if run.traced else {},
        "info": tally.info,
    }
