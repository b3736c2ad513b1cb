"""The one pin on "the same run": observers observe, topology is not semantics.

:meth:`MonitoredFederation.fingerprint` is the only definition of run
equality in the tree.  Two parametrised tests hold everything bolted onto
the monitored federation to it:

- **observer neutrality** — telemetry, light clients and an armed but
  empty fault plan each leave the *whole* fingerprint (decisions,
  alerts, chain head, audit count) equal to the same build without them;
- **topology neutrality** — every decision-plane shape (one shard, four)
  leaves ``decisions`` and ``alerts`` equal to the default single evaluator;
- **policy-plane neutrality** — replicated PRPs that propagate with zero
  delay leave the *whole* fingerprint equal to the default single store.

A run owns its state: two stacks stepped alternately in one process each
reach the fingerprint they reach alone.  A last test shows the pin can
fail: a different seed and an observer that mints one of the run's ids per
enforcement both move the fingerprint.
"""

import pytest

from repro.accesscontrol.plane import ShardedPdpPlane
from repro.faults import FaultPlan
from repro.harness import MonitoredFederation
from repro.policydist import ReplicatedPrpPlane
from repro.workload.scenarios import federation_scale_scenario
from tests.conftest import fast_drams_config

REQUESTS = 16
SEED = 78


def build(seed=SEED, **kwargs) -> MonitoredFederation:
    """A small monitored ``federation-scale`` stack."""
    stack = MonitoredFederation.build(
        federation_scale_scenario(), seed=seed, drams_config=fast_drams_config(), **kwargs
    )
    stack.start()
    return stack


def drive(stack) -> MonitoredFederation:
    stack.issue_requests(REQUESTS)
    stack.run(until=30.0)
    # Two runs that both lost requests, or both went unaudited, would
    # compare equal for the wrong reason.
    assert len(stack.outcomes) == REQUESTS
    assert sum(pep.timeouts for pep in stack.peps.values()) == 0
    assert stack.drams.analyser.checked == REQUESTS
    return stack


# Each observer runs the stack with itself attached (``on``) or absent and,
# when attached, shows it was live rather than merely accepted by ``build``.


def telemetry(on):
    stack = drive(build(telemetry=on))
    if on:
        assert len(stack.telemetry.critical_paths().decision_traces()) == REQUESTS
    return stack


def light_clients(on):
    stack = drive(build(light_clients=on))
    if on:
        assert sum(c.receipts_accepted for c in stack.light_clients.values()) == REQUESTS
    return stack


def empty_fault_plan(on):
    stack = build()
    controller = stack.inject_faults(FaultPlan(name="empty")) if on else None
    drive(stack)
    if on:
        assert controller.applied == [] and controller.recorder.slos()["faults"] == []
    return stack


PLANES = {
    "sharded-1": lambda: ShardedPdpPlane(shards=1),
    "sharded-4": lambda: ShardedPdpPlane(shards=4),
}

POLICY_PLANES = {
    "replicated-zero-delay": lambda: ReplicatedPrpPlane(
        propagation_delay=0, propagation_jitter=0, anti_entropy_interval=0
    ),
}


@pytest.mark.parametrize(
    "observer",
    [telemetry, light_clients, empty_fault_plan],
    ids=lambda observer: observer.__name__,
)
def test_observer_neutrality(observer):
    assert observer(True).fingerprint() == observer(False).fingerprint()


@pytest.mark.parametrize("plane", PLANES)
def test_topology_neutrality(plane):
    default = drive(build()).fingerprint()
    reshaped = drive(build(plane=PLANES[plane]())).fingerprint()
    assert reshaped["decisions"] == default["decisions"]
    assert reshaped["alerts"] == default["alerts"]


@pytest.mark.parametrize("policy_plane", POLICY_PLANES)
def test_policy_plane_neutrality(policy_plane):
    default = drive(build()).fingerprint()
    assert drive(build(policy_plane=POLICY_PLANES[policy_plane]())).fingerprint() == default


def test_interleaved_runs_each_match_their_solo_run():
    solo = [drive(build(seed)).fingerprint() for seed in (SEED, SEED + 1)]
    stacks = [build(seed) for seed in (SEED, SEED + 1)]
    for stack in stacks:
        stack.issue_requests(REQUESTS)
    for _ in range(500):  # one event each, turn about
        for stack in stacks:
            stack.sim.step()
    horizon = max(stack.sim.now for stack in stacks)
    while horizon < 30.0:  # then short slices of simulated time
        horizon = min(horizon + 0.1, 30.0)
        for stack in stacks:
            stack.run(until=horizon)
    assert [stack.fingerprint() for stack in stacks] == solo


def test_fingerprint_is_sensitive():
    base = drive(build()).fingerprint()
    assert drive(build(seed=SEED + 1)).fingerprint() != base

    # An observer that mints one of the run's ids per enforcement.  Drawing from
    # ``federation.rng`` would not do as the impurity: forks are
    # name-derived, so a root draw perturbs no consumer's stream.
    stack = build()
    for pep in stack.peps.values():
        pep.on_enforce.append(lambda request, decision: stack.sim.new_id("impure"))
    impure = drive(stack).fingerprint()
    assert impure != base
    assert impure["decisions"] == base["decisions"]  # the ids moved the chain, not the PDP
