"""Self-driving elastic decision plane: the autoscale controller's
hysteresis band, shard warm-up, weighted rings, the gossiped cross-PEP
load view, and the harness wiring that binds them together."""

import pytest

from repro.accesscontrol.autoscale import AutoscaleController, CrossPepLoadView
from repro.accesscontrol.plane import DecisionPlane, ShardedPdpPlane, SinglePdpPlane
from repro.common.errors import ValidationError
from repro.harness import MonitoredFederation
from repro.simnet.simulator import Simulator
from repro.workload.generator import RequestGenerator, WorkloadConfig
from repro.workload.scenarios import (
    SCENARIO_FACTORIES,
    diurnal_scenario,
    healthcare_scenario,
)
from tests.conftest import fast_drams_config
from tests.test_elastic_plane import build_stack, request_with

SERVICE_KWARGS = {
    "base_processing_delay": 0.01,
    "per_rule_delay": 0.0,
    "serialize_evaluations": True,
}


class _FakeShard:
    def __init__(self, address):
        self.address = address


class ScriptedPlane(ShardedPdpPlane):
    """Controller testbed: the test scripts the signal, actuation is recorded.

    Subclasses the real plane (so ``bind`` accepts it) but never deploys;
    the backlog every shard reports is whatever the test sets ``level``
    to, and membership changes only move a counter.
    """

    def __init__(self, shards=2):
        super().__init__(shards=shards)
        self.level = 0.0
        self.count = shards
        self.events = []

    def projected_backlogs(self, origin=None):
        return {f"pdp-{i}": self.level for i in range(self.count)}

    def draining(self):
        return []

    def add_shard(self):
        self.count += 1
        self.shards = self.count
        self.events.append(("add", self.count))
        return _FakeShard(f"pdp-{self.count - 1}")

    def drain_shard(self, address=None):
        self.count -= 1
        self.shards = self.count
        self.events.append(("drain", self.count))
        return _FakeShard(f"pdp-{self.count}")


def scripted(plane=None, **kwargs):
    defaults = dict(
        min_shards=2,
        max_shards=4,
        high_water=0.1,
        low_water=0.01,
        decide_interval=0.05,
        up_cooldown=0.2,
        down_cooldown=0.6,
        down_samples=4,
    )
    defaults.update(kwargs)
    sim = Simulator()
    plane = plane or ScriptedPlane(shards=defaults["min_shards"])
    controller = AutoscaleController(**defaults).bind(plane, sim).start()
    return sim, plane, controller


class TestControllerHysteresis:
    def test_holds_inside_the_band(self):
        sim, plane, controller = scripted()
        plane.level = 0.05  # between low_water and high_water
        sim.run(until=5.0)
        assert controller.decisions > 50
        assert plane.events == []

    def test_scale_up_respects_cooldown_and_max(self):
        sim, plane, controller = scripted()
        plane.level = 1.0
        sim.run(until=5.0)
        assert [kind for kind, _ in plane.events] == ["add", "add"]
        assert plane.count == 4  # clamped at max_shards despite constant overload
        first, second = (a["at"] for a in controller.actions)
        assert second - first >= 0.2

    def test_scale_down_needs_sustained_low_signal(self):
        sim, plane, controller = scripted()
        plane.level = 0.0
        # Break the low streak every third tick: the signal dips but never
        # stays low for down_samples consecutive samples.
        flicker = {"n": 0}

        def perturb():
            flicker["n"] += 1
            plane.level = 1.0 if flicker["n"] % 3 == 0 else 0.0

        sim.every(0.05, perturb)
        sim.run(until=3.0)
        assert controller.scale_downs == 0

    def test_square_wave_actions_match_phases_no_thrash(self):
        # 1 s overloaded, 1 s idle, three periods.  A well-damped
        # controller adds only while high, drains only while low, and
        # never exceeds (max - min) actions per phase.
        sim, plane, controller = scripted()
        period, phases = 1.0, 6

        def wave():
            phase = int(sim.now // period)
            plane.level = 1.0 if phase % 2 == 0 else 0.0

        sim.every(0.01, wave)
        plane.level = 1.0
        sim.run(until=period * phases)
        assert controller.actions  # the wave actually drove actuation
        for action in controller.actions:
            phase = int(action["at"] // period)
            expected = "add" if phase % 2 == 0 else "drain"
            assert action["action"] == expected, controller.actions
        per_phase = {}
        for action in controller.actions:
            per_phase.setdefault(int(action["at"] // period), []).append(action)
        assert all(len(actions) <= 2 for actions in per_phase.values())
        assert 2 <= plane.count <= 4

    def test_min_equals_max_never_actuates(self):
        sim, plane, controller = scripted(
            plane=ScriptedPlane(shards=3), min_shards=3, max_shards=3
        )
        plane.level = 5.0
        sim.run(until=1.0)
        plane.level = 0.0
        sim.run(until=3.0)
        assert controller.decisions > 0
        assert plane.events == []
        assert controller.scale_ups == controller.scale_downs == 0

    def test_stop_halts_the_decide_loop(self):
        sim, plane, controller = scripted()
        plane.level = 1.0
        sim.run(until=0.3)
        assert controller.running
        controller.stop()
        decided = controller.decisions
        sim.run(until=2.0)
        assert controller.decisions == decided
        assert not controller.running


class TestControllerValidation:
    def test_band_must_have_width(self):
        with pytest.raises(ValidationError, match="high_water"):
            AutoscaleController(high_water=0.01, low_water=0.01)

    def test_bounds_must_order(self):
        with pytest.raises(ValidationError, match="max_shards"):
            AutoscaleController(min_shards=4, max_shards=2)

    def test_rejects_inelastic_plane(self):
        with pytest.raises(ValidationError, match="ShardedPdpPlane"):
            AutoscaleController().bind(DecisionPlane(), Simulator())

    def test_rejects_double_bind_and_premature_start(self):
        controller = AutoscaleController()
        with pytest.raises(ValidationError, match="bind"):
            controller.start()
        controller.bind(ScriptedPlane(), Simulator())
        with pytest.raises(ValidationError, match="already bound"):
            controller.bind(ScriptedPlane(), Simulator())


class TestShardWarmup:
    def _warmed_stack(self):
        plane = ShardedPdpPlane(shards=3, cache_policy="partitioned")
        stack = build_stack(plane)
        stack.issue_requests(40)
        stack.run(until=30.0)
        return plane, stack

    def test_preseeded_entries_bit_identical_to_donors(self):
        plane, stack = self._warmed_stack()
        donors = {
            (key, fingerprint): response
            for service in plane.services
            for key, fingerprint, response in service.decision_cache.export_entries()
        }
        assert donors
        added = plane.add_shard()
        expected = {
            keyed: response
            for keyed, response in donors.items()
            if plane.services[plane._shard_index_for_point(plane._key_point(keyed[0]))]
            is added
        }
        assert expected  # the new shard claimed some warmed key range
        seeded = {
            (key, fingerprint): response
            for key, fingerprint, response in added.decision_cache.export_entries()
        }
        assert seeded == expected
        assert plane.warmed_entries == len(expected)

    def test_warmed_shard_serves_without_recomputing(self):
        plane, stack = self._warmed_stack()
        added = plane.add_shard()
        hits_before = added.decision_cache.stats()["hits"]
        assert len(added.decision_cache) > 0
        stack.issue_requests(40)
        stack.run(until=stack.sim.now + 30.0)
        assert added.requests_served > 0
        assert added.decision_cache.stats()["hits"] > hits_before

    def test_warm_entries_flush_coherently_on_publish(self):
        plane, stack = self._warmed_stack()
        added = plane.add_shard()
        assert len(added.decision_cache) > 0
        stack.publish_policy(stack.scenario.policy_document)
        stack.run(until=stack.sim.now + 5.0)
        assert len(added.decision_cache) == 0  # seeded entries flushed too

    def test_shared_cache_needs_no_warmup(self):
        plane = ShardedPdpPlane(shards=2, cache_policy="shared")
        stack = build_stack(plane)
        stack.issue_requests(20)
        stack.run(until=20.0)
        added = plane.add_shard()
        assert added.decision_cache is plane.services[0].decision_cache
        assert plane.warmed_entries == 0


def gossip_stack(view=None, seed=51, **plane_kwargs):
    view = view or CrossPepLoadView(gossip_interval=0.05, horizon=0.2)
    plane = ShardedPdpPlane(
        shards=3,
        queue_aware=True,
        service_kwargs=dict(SERVICE_KWARGS),
        load_view=view,
        **plane_kwargs,
    )
    stack = build_stack(plane, seed=seed)
    return view, plane, stack


class TestGossipLoadView:
    def test_requires_queue_aware_routing(self):
        with pytest.raises(ValidationError, match="queue_aware"):
            ShardedPdpPlane(shards=2, load_view=CrossPepLoadView())

    def test_one_node_per_member_tenant(self):
        view, plane, stack = gossip_stack()
        assert view.deployed
        for tenant in stack.federation.member_tenants:
            node = view.node_for(tenant.name)
            assert node is not None
            assert node.address == f"loadview@{tenant.name}"

    def test_dispatch_seen_locally_first_then_gossiped(self):
        view, plane, stack = gossip_stack()
        pep = stack.peps["tenant-1"]
        pep.submit(request_with(origin="tenant-1"))
        own = view.projection_for("tenant-1")
        assert sum(own.values()) > 0
        assert sum(view.projection_for("tenant-2").values()) == 0
        stack.run(until=0.08)  # one gossip round plus delivery latency
        peer = view.projection_for("tenant-2")
        assert sum(peer.values()) > 0

    def test_converges_after_message_loss(self):
        view, plane, stack = gossip_stack()
        network = stack.federation.network
        network.set_drop_rate(1.0)
        stack.run(until=0.5)  # every gossip round lost
        receiver = view.node_for("tenant-2")
        sender = view.node_for("tenant-1")
        assert receiver.peer_seqs().get("tenant-1") is None
        network.set_drop_rate(0.0)
        stack.run(until=0.6)  # healed rounds repair the view (full snapshots)
        # Converged up to the round whose delivery may still be in flight.
        assert receiver.peer_seqs()["tenant-1"] >= sender.seq - 1

    def test_stale_peer_snapshots_expire(self):
        view, plane, stack = gossip_stack()
        pep = stack.peps["tenant-1"]
        pep.submit(request_with(origin="tenant-1"))
        stack.run(until=0.08)
        assert sum(view.projection_for("tenant-2").values()) > 0
        view.stop()  # silence gossip: the last snapshot ages out
        stack.run(until=1.5)
        assert sum(view.projection_for("tenant-2").values()) == 0

    def test_decisions_identical_with_and_without_gossip(self):
        def outcomes(load_view):
            plane = ShardedPdpPlane(
                shards=3,
                queue_aware=True,
                service_kwargs=dict(SERVICE_KWARGS),
                load_view=load_view,
            )
            stack = build_stack(plane, scenario=healthcare_scenario(), seed=61)
            stack.issue_requests(60)
            stack.run(until=60.0)
            return stack.fingerprint()["decisions"]

        assert outcomes(None) == outcomes(CrossPepLoadView(gossip_interval=0.05))


class TestDiurnalWorkload:
    def test_diurnal_scenario_registered_ninth(self):
        names = [factory().name for factory in SCENARIO_FACTORIES]
        assert names[8] == "diurnal"
        assert len(names) >= 9

    def test_rate_curve_peaks_and_troughs(self):
        from repro.common.rng import SeededRng

        scenario = diurnal_scenario()
        config = scenario.workload
        generator = RequestGenerator(config, SeededRng(7))
        peak = config.arrival_rate
        assert generator.arrival_rate_at(0.0) == pytest.approx(peak)
        assert generator.arrival_rate_at(config.arrival_period / 2) == pytest.approx(
            peak * config.arrival_trough
        )
        assert generator.arrival_rate_at(config.arrival_period) == pytest.approx(peak)

    def test_stream_is_denser_at_the_peak_than_the_trough(self):
        scenario = diurnal_scenario()
        from repro.common.rng import SeededRng

        generator = RequestGenerator(scenario.workload, SeededRng(7))
        times = [request.at for request in generator.requests(900)]
        period = scenario.workload.arrival_period
        peak_window = sum(1 for t in times if t < period / 4)
        trough_window = sum(1 for t in times if 3 * period / 8 <= t < 5 * period / 8)
        assert peak_window > 2 * trough_window

    def test_homogeneous_streams_stay_flat(self):
        from repro.common.rng import SeededRng

        generator = RequestGenerator(WorkloadConfig(), SeededRng(7))
        assert generator.arrival_rate_at(0.0) == generator.arrival_rate_at(123.4)

    def test_trough_validation(self):
        with pytest.raises(ValidationError, match="arrival_trough"):
            WorkloadConfig(arrival_period=5.0, arrival_trough=0.0)
        with pytest.raises(ValidationError, match="arrival_period"):
            WorkloadConfig(arrival_period=-1.0)


class TestHarnessWiring:
    def test_build_binds_and_starts_the_controller(self):
        controller = AutoscaleController(
            min_shards=1, max_shards=4, decide_interval=0.05
        )
        stack = MonitoredFederation.build(
            diurnal_scenario(),
            with_drams=False,
            plane=ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS)),
            autoscaler=controller,
        )
        assert stack.autoscaler is controller
        assert controller.running
        stack.issue_requests(250, start_at=0.1)
        stack.run(until=8.0)
        assert len(stack.outcomes) == 250
        assert controller.scale_ups > 0  # grew into the opening peak
        assert controller.scale_downs > 0  # shed shards into the trough
        assert sum(pep.timeouts for pep in stack.peps.values()) == 0

    def test_autoscaler_scales_the_single_evaluator_plane(self):
        # N = 1 is not a special case: the default topology grows out of
        # its one historical shard and drains back down like any pool.
        controller = AutoscaleController(min_shards=1, max_shards=4, decide_interval=0.05)
        stack = MonitoredFederation.build(
            diurnal_scenario(),
            with_drams=False,
            plane=SinglePdpPlane(service_kwargs=dict(SERVICE_KWARGS)),
            autoscaler=controller,
        )
        assert [s.address for s in stack.plane.services] == ["pdp@infrastructure"]
        stack.issue_requests(250, start_at=0.1)
        stack.run(until=8.0)
        assert len(stack.outcomes) == 250
        assert controller.actions[0]["address"] == "pdp-1@infrastructure"
        assert controller.scale_downs > 0

    def test_monitored_controller_churn_stays_attributed(self):
        # Controller-initiated add/drain under DRAMS: probes follow the
        # membership events, so every decision is still re-checked and no
        # alert fires.
        controller = AutoscaleController(
            min_shards=1,
            max_shards=3,
            decide_interval=0.05,
            down_cooldown=0.5,
            down_samples=4,
        )
        plane = ShardedPdpPlane(shards=2, service_kwargs=dict(SERVICE_KWARGS))
        stack = MonitoredFederation.build(
            diurnal_scenario(),
            seed=81,
            with_drams=True,
            drams_config=fast_drams_config(),
            plane=plane,
            autoscaler=controller,
        )
        stack.start()
        stack.issue_requests(150, start_at=0.1)
        stack.run(until=40.0)
        assert len(stack.outcomes) == 150
        assert controller.scale_ups + controller.scale_downs > 0
        assert stack.drams.alerts.count() == 0
        analyser = stack.drams.analyser
        assert analyser.checked == len(stack.outcomes)
        assert not plane.draining()
