"""Simulated network: delivery, partitions, drops, latency models."""

import pytest

from repro.common.errors import NetworkError, ValidationError
from repro.simnet.latency import (
    ConstantLatency,
    LanProfile,
    LognormalLatency,
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

    def test_profiles_carry_their_medians(self):
        assert LanProfile().median == 0.0003
        assert WanProfile().median == 0.025

    def test_profiles_order(self, rng):
        lan = sum(LanProfile().sample(rng) for _ in range(200)) / 200
        wan = sum(WanProfile().sample(rng) for _ in range(200)) / 200
        assert lan * 10 < wan


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

    def test_message_to_a_restarted_host_is_dropped_dead(self, sim, rng):
        # Detach and re-attach under the same address while a message is in
        # flight: the delivery belongs to the old incarnation and is dropped.
        net = Network(sim, rng, ConstantLatency(0.1))
        a = Recorder(net, "a")
        old = Recorder(net, "b")
        a.send("b", "ping", {})
        restarted = []

        def restart():
            net.detach("b")
            restarted.append(Recorder(net, "b"))

        sim.schedule(0.05, restart)
        sim.run()
        assert old.received == [] and restarted[0].received == []
        assert (net.stats.dropped, net.stats.dropped_dead, net.stats.delivered) == (1, 1, 0)
        a.send("b", "ping", {})
        sim.run()
        assert len(restarted[0].received) == 1

    def test_multicast_reaches_only_the_listed_hosts(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        hosts = [Recorder(net, f"h{i}") for i in range(4)]
        net.multicast("h0", ["h1", "h2"], "hello", {"n": 1})
        sim.run()
        assert [len(h.received) for h in hosts] == [0, 1, 1, 0]
        assert {m.payload["n"] for h in hosts for m in h.received} == {1}

    def test_multicast_sizes_every_copy_alike(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        hosts = [Recorder(net, f"h{i}") for i in range(3)]
        net.multicast("h0", ["h1", "h2"], "hello", {"blob": "x" * 64})
        sim.run()
        sizes = {m.size_bytes() for h in hosts[1:] for m in h.received}
        assert len(sizes) == 1
        assert net.stats.bytes_sent == 2 * sizes.pop()

    def test_host_lookup_follows_attach_and_detach(self, sim, rng):
        net = Network(sim, rng)
        a = Recorder(net, "a")
        assert net.host("a") is a and net.is_attached("a")
        net.detach("a")
        assert net.host("a") is None and not net.is_attached("a")
        assert net.host("ghost") is None

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
        net.heal_partition(["a"], ["b"])
        a.send("b", "ping", {})
        sim.run()
        assert len(b.received) == 1

    def test_heal_partition_leaves_other_partitions_in_place(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        c = Recorder(net, "c")
        net.partition(["a"], ["b", "c"])
        net.heal_partition(["a"], ["b"])
        assert not net.is_partitioned("a", "b") and not net.is_partitioned("b", "a")
        assert net.is_partitioned("a", "c") and net.is_partitioned("c", "a")
        a.send("b", "ping", {})
        a.send("c", "ping", {})
        sim.run()
        assert (len(b.received), len(c.received)) == (1, 0)

    def test_directed_partition_blocks_one_way(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        net.partition(["a"], ["b"], symmetric=False)
        assert net.is_partitioned("a", "b") and not net.is_partitioned("b", "a")
        a.send("b", "ping", {})
        b.send("a", "pong", {})
        sim.run()
        assert b.received == [] and len(a.received) == 1

    def test_heal_partition_clears_a_directed_partition(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(0.01))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        net.partition(["b"], ["a"], symmetric=False)
        net.heal_partition(["a"], ["b"])
        b.send("a", "pong", {})
        sim.run()
        assert len(a.received) == 1

    def test_partition_mid_flight_drops_message(self, sim, rng):
        net = Network(sim, rng, ConstantLatency(1.0))
        a = Recorder(net, "a")
        b = Recorder(net, "b")
        a.send("b", "ping", {})
        sim.schedule(0.5, lambda: net.partition(["a"], ["b"]))
        sim.run()
        assert b.received == []


class TestDropsAndTaps:
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
