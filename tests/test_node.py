"""Gossiping blockchain nodes on the simulated network."""

from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry, KeyValueContract
from repro.blockchain.node import BlockchainNode
from repro.blockchain.transaction import Transaction
from repro.common.rng import SeededRng
from repro.crypto.signatures import SigningKey
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Message, Network
from repro.simnet.simulator import Simulator


def build_cluster(n=3, latency=0.005, hashrate=256.0, seed=5, **config_overrides):
    rng = SeededRng(seed, "node-tests")
    sim = Simulator()
    net = Network(sim, rng, ConstantLatency(latency))
    registry = ContractRegistry()
    registry.deploy(KeyValueContract())
    defaults = dict(chain_id="cluster", difficulty_bits=8.0,
                    target_block_interval=0.5, retarget_window=0,
                    pow_mode="simulated", confirmations=1)
    defaults.update(config_overrides)
    config = BlockchainConfig(**defaults)
    keys = {f"n{i}": SigningKey.generate(f"n{i}".encode()) for i in range(n)}
    client_key = SigningKey.generate(b"client")
    all_keys = {name: key.public for name, key in keys.items()}
    all_keys["client"] = client_key.public
    nodes = [
        BlockchainNode(net, f"n{i}", config, registry, rng,
                       key_lookup=all_keys.get, signing_key=keys[f"n{i}"],
                       hashrate=hashrate)
        for i in range(n)
    ]
    addresses = [node.address for node in nodes]
    for node in nodes:
        node.connect(addresses)
    return sim, net, nodes, client_key


def client_tx(seq, key, value, client_key):
    return Transaction(sender="client", contract="kvstore", method="put", seq=seq,
                       args={"key": key, "value": value}, tx_id=f"tx-{seq}-{key}").sign(client_key)


class TestConvergence:
    def test_all_nodes_converge_to_one_head(self):
        sim, net, nodes, client_key = build_cluster(n=4)
        for node in nodes:
            node.start()
        sim.run(until=20.0)
        heads = {node.chain.head.hash for node in nodes}
        assert len(heads) == 1
        assert nodes[0].chain.height > 10

    def test_transaction_reaches_all_states(self):
        sim, net, nodes, client_key = build_cluster(n=3)
        for node in nodes:
            node.start()
        nodes[0].submit_transaction(client_tx(1, "shared", 42, client_key))
        sim.run(until=15.0)
        for node in nodes:
            assert node.chain.state_of("kvstore")["data"].get("shared") == 42

    def test_submission_to_any_node_works(self):
        sim, net, nodes, client_key = build_cluster(n=3)
        for node in nodes:
            node.start()
        for i, node in enumerate(nodes):
            node.submit_transaction(client_tx(i + 1, f"k{i}", i, client_key))
        sim.run(until=15.0)
        data = nodes[0].chain.state_of("kvstore")["data"]
        assert data == {"k0": 0, "k1": 1, "k2": 2}

    def test_non_mining_node_follows_chain(self):
        sim, net, nodes, client_key = build_cluster(n=3)
        nodes[2].mining_enabled = False
        for node in nodes:
            node.start()
        sim.run(until=10.0)
        assert nodes[2].blocks_mined == 0
        assert nodes[2].chain.height == nodes[0].chain.height


class TestGossip:
    def test_duplicate_tx_not_resubmitted(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        tx = client_tx(1, "a", 1, client_key)
        assert nodes[0].submit_transaction(tx)
        assert not nodes[0].submit_transaction(tx)

    def test_invalid_tx_rejected_at_submission(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        rogue = SigningKey.generate(b"rogue")
        tx = Transaction(sender="rogue", contract="kvstore", method="put",
                         args={"key": "a", "value": 1}, seq=1, tx_id="rogue-1").sign(rogue)
        assert not nodes[0].submit_transaction(tx)

    def test_partitioned_node_catches_up_after_heal(self):
        sim, net, nodes, client_key = build_cluster(n=3)
        for node in nodes:
            node.start()
        nodes[2].mining_enabled = False
        nodes[2].stop()
        net.partition([nodes[2].address],
                      [nodes[0].address, nodes[1].address])
        nodes[0].submit_transaction(client_tx(1, "during-partition", 1, client_key))
        sim.run(until=10.0)
        assert nodes[2].chain.height == 0
        net.heal_partition([nodes[2].address], [nodes[0].address, nodes[1].address])
        # A fresh block after healing triggers parent-fetch resync.
        sim.run(until=25.0)
        assert nodes[2].chain.height > 0
        assert (nodes[2].chain.state_of("kvstore")["data"].get("during-partition")
                == 1)


class TestMining:
    def test_miners_share_rewardless_work(self):
        sim, net, nodes, client_key = build_cluster(n=3, hashrate=512.0)
        for node in nodes:
            node.start()
        sim.run(until=20.0)
        mined = [node.blocks_mined for node in nodes]
        assert sum(mined) >= nodes[0].chain.height
        assert all(m > 0 for m in mined)  # everyone wins sometimes

    def test_unequal_hashrate_biases_production(self):
        sim, net, nodes, client_key = build_cluster(n=2, hashrate=256.0)
        nodes[0].hashrate = 2048.0
        for node in nodes:
            node.start()
        sim.run(until=30.0)
        assert nodes[0].blocks_mined > nodes[1].blocks_mined

    def test_stop_halts_mining(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        for node in nodes:
            node.start()
        sim.run(until=5.0)
        mined_before = nodes[0].blocks_mined
        nodes[0].stop()
        nodes[1].stop()
        sim.run(until=10.0)
        assert nodes[0].blocks_mined == mined_before

    def test_head_listener_fires(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        heights = []
        nodes[0].on_head_change(lambda head: heights.append(head.height))
        for node in nodes:
            node.start()
        sim.run(until=5.0)
        assert heights and heights == sorted(heights)


def fork_at_height_one(nodes, tx):
    """``n0`` adopts an empty block A; ``n1``'s block B, carrying ``tx``, ties it.

    Both nodes hold ``tx`` in their mempools first.  Equal work goes to the
    lower tip hash, so A's timestamp is stepped until A wins at ``n0``;
    ``n1`` keeps B as its head.  Returns ``(A, B)``; nothing is delivered.
    """
    n0, n1 = nodes[0], nodes[1]
    for node in (n0, n1):
        node.mempool.add(tx)
    side = n1.chain.create_block("n1", [tx], timestamp=1.0, signing_key=n1.signing_key)
    n1._accept_block(side)
    for step in range(64):
        won = n0.chain.create_block(
            "n0", [], timestamp=1.0 + step / 64, signing_key=n0.signing_key
        )
        if won.hash < side.hash:
            break
    n0._accept_block(won)
    n0._accept_block(side)
    assert n0.chain.head.hash == won.hash and n0.chain.has_block(side.hash)
    return won, side


class TestSideBlocks:
    """A stored block leaves the mempool only as far as the main chain holds it."""

    def test_side_block_transactions_stay_pending(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        tx = client_tx(1, "k", 1, client_key)
        fork_at_height_one(nodes, tx)
        n0 = nodes[0]
        assert n0.chain.tx_location(tx.tx_id) is None
        assert tx.tx_id in n0.mempool
        assert tx in n0.chain.collect_block_txs(n0.mempool)

    def test_next_block_carries_a_side_block_transaction(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        tx = client_tx(1, "k", 1, client_key)
        won, _side = fork_at_height_one(nodes, tx)
        n0 = nodes[0]
        n0._mine_block()
        location = n0.chain.tx_location(tx.tx_id)
        assert location is not None and location.height == 2
        assert n0.chain.main_chain()[1].hash == won.hash
        assert tx.tx_id not in n0.mempool

    def test_adopted_block_clears_its_transactions(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        tx = client_tx(1, "k", 1, client_key)
        fork_at_height_one(nodes, tx)
        assert tx.tx_id not in nodes[1].mempool
        assert nodes[1].chain.tx_location(tx.tx_id).height == 1

    def test_reorg_onto_side_branch_purges_what_it_adopts(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        tx = client_tx(1, "k", 1, client_key)
        _won, side = fork_at_height_one(nodes, tx)
        n0, n1 = nodes
        child = n1.chain.create_block("n1", [], timestamp=2.0, signing_key=n1.signing_key)
        n0._accept_block(child)
        assert n0.chain.head.hash == child.hash and n0.chain.reorgs == 1
        assert n0.chain.tx_location(tx.tx_id).block_hash == side.hash
        assert tx.tx_id not in n0.mempool

    def test_orphan_reconnect_reorg_purges_what_it_adopts(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        n0, n1 = nodes
        tx = client_tx(1, "k", 1, client_key)
        n0.mempool.add(tx)
        n0._accept_block(n0.chain.create_block("n0", [], 1.0, signing_key=n0.signing_key))
        side = n1.chain.create_block("n1", [tx], timestamp=1.0, signing_key=n1.signing_key)
        n1._accept_block(side)
        child = n1.chain.create_block("n1", [], timestamp=2.0, signing_key=n1.signing_key)
        # The child arrives first and is parked; its parent reconnects it.
        for block in (child, side):
            n0.receive(Message(src="n1", dst="n0", kind="bc_block", payload=block.to_dict()))
        assert n0.chain.head.hash == child.hash
        assert n0.chain.tx_location(tx.tx_id).block_hash == side.hash
        assert tx.tx_id not in n0.mempool

    def test_reorg_reinjects_the_losing_branch_transactions(self):
        sim, net, nodes, client_key = build_cluster(n=2)
        n0, n1 = nodes
        tx = client_tx(1, "k", 1, client_key)
        n0.mempool.add(tx)
        n0._mine_block()
        assert n0.chain.tx_location(tx.tx_id) is not None and tx.tx_id not in n0.mempool
        for timestamp in (1.0, 2.0):
            block = n1.chain.create_block("n1", [], timestamp, signing_key=n1.signing_key)
            n1._accept_block(block)
            n0._accept_block(block)
        assert n0.chain.head.hash == n1.chain.head.hash and n0.chain.reorgs == 1
        assert n0.chain.tx_location(tx.tx_id) is None
        assert tx.tx_id in n0.mempool
        n0._mine_block()
        assert n0.chain.tx_location(tx.tx_id).height == 3

    def test_forks_lose_no_transaction_and_leave_no_stale_entry(self):
        # Gossip latency near the block interval makes forks common.
        sim, net, nodes, client_key = build_cluster(n=3, latency=0.3)
        for node in nodes:
            node.start()
        txs = [client_tx(seq, f"k{seq}", seq, client_key) for seq in range(1, 31)]
        for index, tx in enumerate(txs):
            sim.schedule_at(0.5 * index, lambda tx=tx, index=index: (
                nodes[index % 3].submit_transaction(tx)))
        sim.run(until=25.0)
        for node in nodes:
            node.mining_enabled = False
            node.stop()
        sim.run(until=30.0)
        assert sum(node.chain.reorgs for node in nodes) > 0
        assert len({node.chain.head.hash for node in nodes}) == 1
        for node in nodes:
            assert all(node.chain.tx_location(tx.tx_id) is not None for tx in txs)
            assert len(node.mempool) == 0
