"""Simulated network: delivery, partitions, drops, latency models."""

import pytest

from repro.common.errors import NetworkError, ValidationError
from repro.simnet.latency import (
    ConstantLatency,
    LanProfile,
    LognormalLatency,
    UniformLatency,
    WanProfile,
)
from repro.simnet.network import Host, Message, Network


class Recorder(Host):
    def __init__(self, network, address):
        super().__init__(network, address)
        self.received: list[Message] = []

    def receive(self, message):
        self.received.append(message)


class TestLatencyModels:
    def test_constant_latency(self, rng):
        model = ConstantLatency(0.01)
        assert model.sample(rng) == 0.01

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_bandwidth_term_scales_with_size(self, rng):
        model = ConstantLatency(0.0, bandwidth_bps=8000)  # 1000 bytes/sec
        assert model.sample(rng, size_bytes=1000) == pytest.approx(1.0)

    def test_uniform_latency_within_bounds(self, rng):
        model = UniformLatency(0.01, 0.02)
        for _ in range(100):
            assert 0.01 <= model.sample(rng) <= 0.02

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.02, 0.01)

    def test_lognormal_positive_and_spread(self, rng):
        model = LognormalLatency(median=0.025, sigma=0.3)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert min(samples) < 0.025 < max(samples)

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LognormalLatency(median=0)
        with pytest.raises(ValueError):
            LognormalLatency(median=0.1, sigma=-1)

    def test_profiles_order(self, rng):
        lan = sum(LanProfile().sample(rng) for _ in range(200)) / 200
        wan = sum(WanProfile().sample(rng) for _ in range(200)) / 200
        assert lan * 10 < wan

    def test_models_describe_themselves(self):
        assert ConstantLatency(0.005).describe() == "const(5.00ms)"
        assert UniformLatency(0.001, 0.002).describe() == "uniform(1.00..2.00ms)"
        assert LanProfile().describe() == "lognormal(median=0.30ms, sigma=0.2)"


class TestDelivery:
    def test_message_delivered_after_latency(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.5))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        a.send("b", "ping", {"x": 1})
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].payload == {"x": 1}
        assert sim.now == pytest.approx(0.5, abs=1e-9)

    def test_unknown_destination_drops(self, sim, rng):
        net = Network(sim, rng)
        a = Recorder(net, "a")
        assert a.send("ghost", "ping", {}) is None
        assert net.stats.dropped == 1

    def test_unknown_source_raises(self, sim, rng):
        net = Network(sim, rng)
        Recorder(net, "a")
        with pytest.raises(NetworkError):
            net.send("ghost", "a", "ping", {})

    def test_duplicate_address_rejected(self, sim, rng):
        net = Network(sim, rng)
        Recorder(net, "a")
        with pytest.raises(NetworkError):
            Recorder(net, "a")

    def test_per_pair_latency_override(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(1.0))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        net.set_latency("a", "b", ConstantLatency(0.1))
        a.send("b", "fast", {})
        sim.run()
        assert sim.now == pytest.approx(0.1, abs=1e-9)

    def test_detach_stops_delivery(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.1))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        a.send("b", "ping", {})
        net.detach("b")
        sim.run()
        assert b.received == []

    def test_broadcast_reaches_all_but_sender(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        hosts = [Recorder(net, f"h{i}") for i in range(4)]
        count = net.broadcast("h0", "hello", {"n": 1})
        sim.run()
        assert count == 3
        assert all(len(h.received) == 1 for h in hosts[1:])
        assert hosts[0].received == []

    def test_stats_track_bytes(self, sim, rng):
        net = Network(sim, rng)
        a = Recorder(net, "a")
        Recorder(net, "b")
        a.send("b", "ping", {"payload": "x" * 100})
        assert net.stats.bytes_sent > 100


class TestPartitions:
    def test_partition_blocks_both_directions(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        net.partition(["a"], ["b"])
        a.send("b", "ping", {})
        b.send("a", "pong", {})
        sim.run()
        assert a.received == [] and b.received == []
        assert net.stats.dropped == 2

    def test_heal_restores_traffic(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        net.partition(["a"], ["b"])
        net.heal()
        a.send("b", "ping", {})
        sim.run()
        assert len(b.received) == 1

    def test_partition_mid_flight_drops_message(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(1.0))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        a.send("b", "ping", {})
        sim.schedule(0.5, lambda: net.partition(["a"], ["b"]))
        sim.run()
        assert b.received == []


class TestDropsAndTaps:
    def test_drop_rate_one_drops_everything(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        net.set_drop_rate(1.0)
        for _ in range(10):
            a.send("b", "ping", {})
        sim.run()
        assert b.received == []

    def test_drop_rate_validation(self, sim, rng):
        net = Network(sim, rng)
        with pytest.raises(ValueError):
            net.set_drop_rate(1.5)

    def test_tap_sees_all_messages(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        Recorder(net, "b")
        seen = []
        net.add_tap(lambda msg: seen.append(msg.kind))
        a.send("b", "one", {})
        a.send("ghost", "two", {})  # dropped, but tapped
        sim.run()
        assert seen == ["one", "two"]


class TestDecodePath:
    """``Host.receive`` is the one decode path: table lookup, decode, drop and count."""

    class Point:
        def __init__(self, x):
            self.x = x

        @classmethod
        def from_dict(cls, data):
            if not isinstance(data, dict) or not isinstance(data.get("x"), int):
                raise ValidationError("not a point")
            return cls(data["x"])

    def make_host(self, net):
        point = self.Point

        def decode_name(host, payload):
            if not isinstance(payload, str):
                raise ValidationError("not a name")
            return f"{host.address}:{payload}"

        class Table(Host):
            def _take(self, message, value):
                self.taken.append((message.kind, value))

            RECEIVES = {"point": (point, _take), "name": (decode_name, _take)}

        host = Table(net, "h")
        host.taken = []
        return host

    def test_decodes_drops_counts_and_ignores(self, sim, rng):
        net = Network(sim, rng)
        host = self.make_host(net)
        host.receive(Message("x", "h", "point", {"x": 3}))
        host.receive(Message("x", "h", "name", "n"))
        host.receive(Message("x", "h", "point", {"x": "3"}))
        host.receive(Message("x", "h", "name", 7))
        host.receive(Message("x", "h", "name", 7))
        host.receive(Message("x", "h", "unlisted", None))
        assert [(kind, getattr(value, "x", value)) for kind, value in host.taken] == [
            ("point", 3),
            ("name", "h:n"),
        ]
        assert net.stats.malformed == {("h", "point"): 1, ("h", "name"): 2}
        assert net.stats.snapshot()["malformed"] == {"h": {"name": 2, "point": 1}}

    def test_a_sideband_of_exactly_the_payload_type_is_taken_as_is(self, sim, rng):
        net = Network(sim, rng)
        host = self.make_host(net)
        carried = self.Point(5)
        message = Message("x", "h", "point", {"x": "not decoded"})
        message.decoded = carried
        host.receive(message)
        assert host.taken == [("point", carried)] and net.stats.malformed == {}

    def test_every_class_with_a_table_owns_its_receive(self):
        # Profilers wrap one class's deliveries by name (bench/tracing.py).
        from repro.accesscontrol.pdp_service import PdpService
        from repro.accesscontrol.pep import PolicyEnforcementPoint
        from repro.baselines.central import CentralizedMonitor
        from repro.blockchain.node import BlockchainNode
        from repro.drams.logging_interface import LoggingInterface
        from repro.lightclient.consumer import LightProbeConsumer
        from repro.lightclient.headers import HeaderClient
        from repro.policydist.plane import _PrpOriginHost, _PrpReplicaHost

        for cls in (
            BlockchainNode,
            PolicyEnforcementPoint,
            PdpService,
            LightProbeConsumer,
            HeaderClient,
            LoggingInterface,
            CentralizedMonitor,
            _PrpOriginHost,
            _PrpReplicaHost,
        ):
            assert vars(cls)["receive"] is Host.receive, cls.__name__
