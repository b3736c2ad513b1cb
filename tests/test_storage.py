"""Storage backends: database, pure chain, hybrid anchoring, auditor."""

import pytest

from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry, KeyValueContract
from repro.blockchain.node import BlockchainNode
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.crypto.signatures import SigningKey
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.storage.auditor import IntegrityAuditor
from repro.storage.database import DatabaseConfig, DatabaseStore
from repro.storage.hybrid import HybridStore
from repro.storage.purechain import PureChainStore


@pytest.fixture
def chain_env():
    sim = Simulator()
    rng = SeededRng(31, "storage-tests")
    net = Network(sim, rng, ConstantLatency(0.002))
    registry = ContractRegistry()
    registry.deploy(KeyValueContract())
    config = BlockchainConfig(chain_id="storage", difficulty_bits=8.0,
                              target_block_interval=0.5, retarget_window=0,
                              pow_mode="simulated", confirmations=1)
    node_key = SigningKey.generate(b"node")
    client_key = SigningKey.generate(b"client")
    keys = {"node-1": node_key.public, "client": client_key.public}
    node = BlockchainNode(net, "node-1", config, registry, rng,
                          key_lookup=keys.get, signing_key=node_key,
                          hashrate=512.0)
    node.connect([])
    node.start()
    return sim, rng, node, client_key


class TestDatabase:
    def test_write_then_read(self, sim, rng):
        db = DatabaseStore(sim, rng)
        acks = []
        db.write("k", {"v": 1}, on_ack=acks.append)
        sim.run()
        assert acks == ["k"] and db.get("k") == {"v": 1}

    def test_write_has_latency(self, sim, rng):
        db = DatabaseStore(sim, rng, DatabaseConfig(write_latency=0.01, jitter=0.0))
        db.write("k", 1)
        sim.run()
        assert sim.now == pytest.approx(0.01)

    def test_read_missing_returns_none(self, sim, rng):
        db = DatabaseStore(sim, rng)
        db.write("k", "v")
        assert db.get("k") is None  # not yet acknowledged
        sim.run()
        assert db.get("ghost") is None

    def test_tamper_rewrites_silently(self, sim, rng):
        db = DatabaseStore(sim, rng)
        db.write("k", "honest")
        sim.run()
        assert db.tamper("k", "forged")
        assert db.get("k") == "forged"
        assert "k" in db.tampered_keys

    def test_tamper_missing_key_fails(self, sim, rng):
        assert not DatabaseStore(sim, rng).tamper("ghost", 1)

    def test_delete(self, sim, rng):
        db = DatabaseStore(sim, rng)
        db.write("k", 1)
        sim.run()
        assert db.delete("k")
        assert "k" not in db

    def test_keys_in_insertion_order(self, sim, rng):
        db = DatabaseStore(sim, rng, DatabaseConfig(write_latency=0.0, jitter=0.0))
        for key in ("b", "a", "c"):
            db.write(key, 1)
        sim.run()
        assert db.keys_in_order() == ["b", "a", "c"]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DatabaseConfig(write_latency=-1)
        with pytest.raises(ValidationError):
            DatabaseConfig(jitter=1.5)


class TestPureChainStore:
    def test_store_becomes_durable(self, chain_env):
        sim, rng, node, client_key = chain_env
        store = PureChainStore(node, "client", client_key)
        durable = []
        store.store("log-1", {"entry": "x"},
                    on_durable=lambda key, latency: durable.append((key, latency)))
        sim.run(until=10.0)
        assert durable and durable[0][0] == "log-1"
        assert durable[0][1] > 0
        assert store.get("log-1") == {"entry": "x"}

    def test_durable_latency_tracks_finality(self, chain_env):
        sim, rng, node, client_key = chain_env
        store = PureChainStore(node, "client", client_key)
        for i in range(5):
            store.store(f"log-{i}", i)
        sim.run(until=20.0)
        assert len(store.durable_latencies) == 5
        assert store.pending_count() == 0

    def test_store_is_pending_until_final(self, chain_env):
        sim, rng, node, client_key = chain_env
        store = PureChainStore(node, "client", client_key)
        store.store("log-1", {"entry": "x"})
        assert store.pending_count() == 1
        assert store.get("log-1") is None
        sim.run(until=10.0)
        assert store.pending_count() == 0

    def test_unsigned_sender_rejected(self, chain_env):
        sim, rng, node, client_key = chain_env
        rogue = SigningKey.generate(b"rogue")
        store = PureChainStore(node, "rogue", rogue)
        assert store.store("k", 1) is None
        assert store.rejected == 1


class TestHybridStore:
    def build(self, chain_env, anchor_interval=1.0):
        sim, rng, node, client_key = chain_env
        db = DatabaseStore(sim, rng)
        store = HybridStore(db, node, "client", client_key,
                            anchor_interval=anchor_interval)
        return sim, db, store

    def test_ack_is_db_fast(self, chain_env):
        sim, db, store = self.build(chain_env)
        acks = []
        store.store("k", {"v": 1}, on_ack=lambda key, latency: acks.append(latency))
        sim.run(until=5.0)
        assert acks and acks[0] < 0.01  # milliseconds, not block time

    def test_anchor_covers_batch(self, chain_env):
        sim, db, store = self.build(chain_env)
        store.start()
        for i in range(5):
            store.store(f"k{i}", i)
        sim.run(until=10.0)
        assert store.anchors
        anchored_keys = [key for anchor in store.anchors for key in anchor.keys]
        assert sorted(anchored_keys) == [f"k{i}" for i in range(5)]

    def test_anchor_appears_on_chain(self, chain_env):
        sim, db, store = self.build(chain_env)
        store.start()
        store.store("k", "v")
        sim.run(until=10.0)
        onchain = store.onchain_anchor(0)
        assert onchain is not None
        assert onchain["root"] == store.anchors[0].root

    def test_no_anchor_for_empty_batch(self, chain_env):
        sim, db, store = self.build(chain_env)
        store.start()
        sim.run(until=5.0)
        assert store.anchors == []

    def test_integrity_window_formula(self, chain_env):
        sim, db, store = self.build(chain_env, anchor_interval=4.0)
        window = store.integrity_window()
        assert window == pytest.approx(4.0 + 0.5)  # interval + finality

    def test_anchor_interval_validation(self, chain_env):
        sim, rng, node, client_key = chain_env
        with pytest.raises(ValidationError):
            HybridStore(DatabaseStore(sim, rng), node, "client", client_key,
                        anchor_interval=0)


class TestAuditor:
    def deploy(self, chain_env, rows=6):
        sim, db, store = TestHybridStore().build(chain_env)
        store.start()
        for i in range(rows):
            store.store(f"k{i}", {"value": i})
        sim.run(until=10.0)
        return sim, db, store, IntegrityAuditor(db, store)

    def test_clean_database_audits_clean(self, chain_env):
        sim, db, store, auditor = self.deploy(chain_env)
        report = auditor.audit()
        assert report.clean
        assert report.batches_verified == report.anchors_final > 0

    def test_tampered_row_detected(self, chain_env):
        sim, db, store, auditor = self.deploy(chain_env)
        db.tamper("k2", {"value": 999})
        report = auditor.audit()
        assert not report.clean
        assert report.batches_violated
        assert "k2" in report.suspect_keys

    def test_deleted_row_detected_by_name(self, chain_env):
        sim, db, store, auditor = self.deploy(chain_env)
        db.delete("k3")
        report = auditor.audit()
        assert "k3" in report.missing_rows
        assert not report.clean

    def test_unanchored_rows_reported_as_window(self, chain_env):
        sim, db, store, auditor = self.deploy(chain_env)
        store.stop()
        store.store("late", 1)
        sim.run(until=11.0)
        report = auditor.audit()
        assert "late" in report.unanchored_keys

    def test_tamper_inside_window_is_invisible(self, chain_env):
        """The integrity window is real: pre-anchor tampering is undetectable."""
        sim, db, store, auditor = self.deploy(chain_env, rows=0)
        store.stop()  # no more anchors will happen
        store.store("fresh", "original")
        sim.run(until=11.0)
        db.tamper("fresh", "forged")
        report = auditor.audit()
        assert report.batches_violated == []  # nothing anchored, nothing caught
        assert "fresh" in report.unanchored_keys

    def test_summary_text(self, chain_env):
        sim, db, store, auditor = self.deploy(chain_env)
        assert "CLEAN" in auditor.audit().summary()
        db.tamper("k0", "x")
        assert "TAMPERING" in auditor.audit().summary()
