"""The gossip decode boundary: malformed wire input is rejected, typed, and harmless.

``Transaction.from_dict`` and ``Block.from_dict`` are where bytes from
other tenants become objects.  Whatever JSON-shaped value arrives, they
raise :class:`ValidationError` and nothing else, and a node handed such a
``bc_tx``/``bc_block`` message drops it, counts it and keeps its state.
The service requests (``bc_block_request``, ``bc_head``, ``bc_header_sync``,
``bc_proof_request``) decode to no object, but their fields are converted
and used as keys, so the same holds for a payload of the wrong shape.
The replies a light client gets back (``bc_headers``, ``bc_proof``) come
from a full node it does not trust: a malformed one is dropped and counted
before any of the client's state is touched.  The policy-distribution
hosts (``prp_publish``, ``prp_sync``, ``prp_pull``), the PDP
(``ac_request``), the PEP (``ac_response``) and the Logging Interface
(``drams_log``) drop and count what does not decode the same way.  Every
host does so on one path, ``Host.receive``, and every drop is counted in
one view, ``NetworkStats.malformed``, by destination and kind.  A
scenario spec read back with ``spec_from_json`` and a fault plan read
with ``FaultPlan.from_dict`` are held to the same rule as a wire decoder.
"""

import functools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accesscontrol.messages import AccessDecision, AccessRequest
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.plane import SinglePdpPlane
from repro.accesscontrol.prp import PolicyRetrievalPoint, PolicyVersion
from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.transaction import Transaction
from repro.common.errors import ValidationError
from repro.common.ids import reset_id_counter
from repro.crypto.merkle import MerkleProof
from repro.drams.logs import EntryType, LogEntry
from repro.faults import FaultPlan, clock_skew, crash, link_degrade, partition
from repro.federation.federation import Federation, FederationConfig
from repro.harness import MonitoredFederation
from repro.lightclient.consumer import LightProbeConsumer
from repro.lightclient.headers import HeaderClient
from repro.lightclient.receipts import DecisionReceipt
from repro.policydist import ReplicatedPrpPlane
from repro.policydist.replica import check_record
from repro.scenariogen.presets import PRESET_SPECS
from repro.scenariogen.spec import ScenarioSpec, spec_from_json, spec_to_json
from repro.simnet.network import Message
from repro.workload.scenarios import healthcare_scenario
from repro.xacml.parser import policy_to_dict
from tests.conftest import fast_drams_config
from tests.strategies import json_values, transactions
from tests.test_elastic_plane import doctors_policy, request_with
from tests.test_verify_once import alice_tx, build_cluster, gossip_message

DECODERS = {"bc_tx": Transaction.from_dict, "bc_block": Block.from_dict}

#: Service requests: every field is optional, one that is present has this type.
REQUEST_FIELDS = {
    "bc_block_request": {"hash": str},
    "bc_head": {"hash": str},
    "bc_header_sync": {"locator": list, "limit": int},
    "bc_proof_request": {"request_id": str, "tx_id": str, "correlation_id": str, "entry_type": str},
}
GENUINE_REQUESTS = {
    "bc_block_request": {"hash": "ab" * 32},
    "bc_head": {"hash": "ab" * 32, "height": 3},
    "bc_header_sync": {"locator": ["ab" * 32, "cd" * 32], "limit": 64},
    "bc_proof_request": {"request_id": "c-1", "correlation_id": "c-1", "entry_type": "pep-in"},
}
KINDS = sorted({**DECODERS, **REQUEST_FIELDS})

MALFORMED = {
    "bc_tx": [{"signature": {"e": "zz"}}],
    "bc_block": [{"miner_signature": {"e": "zz"}}],
    "bc_block_request": [{"hash": ["unhashable"]}],
    "bc_head": [{"hash": 5}],
    "bc_header_sync": [{"limit": "x"}, {"locator": 5}, {"limit": None}],
    "bc_proof_request": [{"tx_id": ["unhashable"]}, {"correlation_id": {}, "entry_type": "pep-in"}],
}

# JSON admits integers no float can hold; the decoders call float() and int().
wire_values = st.one_of(json_values, st.just(10**400), st.just(-(10**400)))

SPEC_KEYS = ("name", "roles", "classes", "tree", "federation", "population", "arrival", "churn")
#: Arbitrary JSON, and objects whose spec keys hold arbitrary JSON.
spec_documents = st.one_of(wire_values, st.dictionaries(st.sampled_from(SPEC_KEYS), wire_values))


def genuine_block_dict():
    _sim, _net, (node, *_), keys = build_cluster(n=1)
    txs = [alice_tx(seq) for seq in (1, 2)]
    return node.chain.create_block("n0", txs, 1.0, signing_key=keys["n0"]).to_dict()


BLOCK_DICT = genuine_block_dict()


def genuine_replies():
    """What an honest full node answers a light client once one block is mined."""
    _sim, _net, (node, *_), keys = build_cluster(n=1)
    tx = alice_tx()
    block = node.chain.create_block("n0", [tx], 1.0, signing_key=keys["n0"])
    node.chain.add_block(block)
    header = block.header.to_dict()
    return {
        "bc_headers": {"headers": [header], "tip_hash": block.hash, "tip_height": 1},
        "bc_proof": {
            "request_id": "c-1",
            "found": True,
            "tx": tx.to_dict(),
            "proof": node.chain.inclusion_proof(tx.tx_id).to_dict(),
            "tree_size": 1,
            "header": header,
        },
    }


GENUINE_REPLIES = genuine_replies()
MALFORMED_REPLIES = {
    "bc_headers": [
        {"headers": 5},
        {"headers": [{"height": "x"}]},
        {"headers": [], "tip_height": "x"},
        {"headers": [BLOCK_DICT["header"]], "tip_height": None},
    ],
    "bc_proof": [{"request_id": ["a"]}, {"request_id": 5, "found": True}],
}


@st.composite
def mutated(draw, document):
    """``document`` with one value, somewhere inside it, replaced or removed."""
    document = draw(document) if isinstance(document, st.SearchStrategy) else document

    def mutate(value):
        if isinstance(value, dict) and value and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(value)))
            if draw(st.integers(0, 4)) == 0:
                return {k: v for k, v in value.items() if k != key}
            return {**value, key: mutate(value[key])}
        if isinstance(value, list) and value and draw(st.booleans()):
            index = draw(st.integers(0, len(value) - 1))
            return value[:index] + [mutate(value[index])] + value[index + 1 :]
        return draw(wire_values)

    return mutate(document)


def decodes(kind, payload):
    """True if ``payload`` decodes; the only permitted failure is ValidationError."""
    if kind in REQUEST_FIELDS:
        return isinstance(payload, dict) and all(
            isinstance(payload[name], expected)
            for name, expected in REQUEST_FIELDS[kind].items()
            if name in payload
        )
    try:
        DECODERS[kind](payload)
    except ValidationError:
        return False
    return True


def node_state(node, net):
    return (
        set(node._seen_txs),
        set(node._seen_blocks),
        [tx.tx_id for tx in node.mempool.pending()],
        dict(node._orphans),
        node.chain.head.hash,
        node.chain.block_count(),
        net.stats.sent,
    )


def deliver(kind, payload):
    """Hand one gossip message to a fresh node; returns what must hold afterwards."""
    _sim, net, (node, _peer), _keys = build_cluster(n=2, verified=set())
    before = node_state(node, net)
    well_formed = decodes(kind, payload)
    node.receive(Message(src="n1", dst="n0", kind=kind, payload=payload, msg_id="fuzz"))
    if not well_formed:
        assert node_state(node, net) == before
        assert node.chain._verified == set()
    assert net.stats.malformed == ({} if well_formed else {("n0", kind): 1})
    return well_formed


def reply_decodes(kind, payload):
    """True if a light client must take ``payload`` as well formed (and then judge it)."""
    if not isinstance(payload, dict):
        return False
    if kind == "bc_proof":
        return isinstance(payload.get("request_id", ""), str)
    try:
        [BlockHeader.from_dict(data) for data in payload.get("headers", [])]
        int(payload.get("tip_height", 0))
    except (TypeError, ValueError, OverflowError, ValidationError):
        return False
    return True


def client_state(headers, consumer, net):
    return (
        headers.height,
        list(headers._branch),
        headers._inflight,
        headers.headers_rejected,
        dict(consumer._awaiting),
        dict(consumer._parked),
        dict(consumer.receipts),
        list(consumer.rejections),
        net.stats.sent,
    )


def light_clients(*watched):
    """A header client with a sync round in flight and an auditor awaiting ``watched``."""
    _sim, net, (node, _peer), _keys = build_cluster(n=2, verified=set())
    headers = HeaderClient(net, "lc-headers", node.chain.config, server="n0")
    consumer = LightProbeConsumer(net, "lc-audit", headers, proof_server="n0")
    for correlation_id in watched:
        consumer.watch(correlation_id)
    headers.sync()
    return headers, consumer, net


def reply(kind, payload):
    return gossip_message(kind, payload, dst="lc", src="n0")


def deliver_reply(kind, payload):
    """Hand one reply to a light client mid-sync, one receipt awaited and one parked."""
    headers, consumer, net = light_clients("c-0", "c-1")
    consumer.receive(reply("bc_proof", {**GENUINE_REPLIES["bc_proof"], "request_id": "c-0"}))
    client = headers if kind == "bc_headers" else consumer
    before = client_state(headers, consumer, net)
    assert before[2] and list(before[4]) == ["c-1"] and list(before[5]) == ["c-0"]
    well_formed = reply_decodes(kind, payload)
    client.receive(reply(kind, payload))
    if not well_formed:
        assert client_state(headers, consumer, net) == before
    expected = {} if well_formed else {client.address: {kind: 1}}
    assert net.stats.snapshot()["malformed"] == expected
    return well_formed


# -- the policy-distribution hosts and the PDP ---------------------------------------

ORIGIN = "prp@infrastructure"


def policy_records():
    """Genuine records for versions 1 and 2, and version 2 altered in flight."""
    store = PolicyRetrievalPoint()
    store.publish(policy_to_dict(doctors_policy()), publisher="pap@test")
    store.publish({**policy_to_dict(doctors_policy()), "policy_id": "p2"}, publisher="pap@test")
    first, second = (version.to_record() for version in store.history())
    return first, second, {**second, "document": {**second["document"], "policy_id": "forged"}}


V1, V2, FORGED = policy_records()
GENUINE_HOST_MESSAGES = {
    "prp_publish": {"record": V2},
    "prp_sync": {"records": [V2]},
    "prp_pull": {"vector": {ORIGIN: 0}},
    "ac_request": request_with().to_dict(),
}
HOST_KINDS = sorted(GENUINE_HOST_MESSAGES)
MALFORMED_HOST_MESSAGES = {
    "prp_publish": [{}, {"record": {"version": 1}}, {"record": FORGED}, {"record": [V2]}],
    "prp_sync": [{"records": 5}, {"records": [V2, {"version": 3}]}, {"records": [FORGED]}],
    "prp_pull": [{"vector": 7}, {"vector": {ORIGIN: "x"}}, {"vector": {ORIGIN: -1}}],
    "ac_request": [{}, {"content": [], "origin_tenant": "t", "request_id": "r"}],
}


def policy_hosts():
    """A replicated policy plane holding version 1, and a PDP reading its replica."""
    federation = Federation(FederationConfig(name="decode-boundary", seed=5))
    plane = ReplicatedPrpPlane(anti_entropy_interval=0).deploy(federation)
    plane.authority.publish(V1["document"], publisher="pap@test")
    infra = federation.infrastructure_tenant
    pdp = PdpService(federation.network, infra.address("pdp"), plane.retrieval_point_for("pdp"))
    infra.register_host(pdp.address)
    return federation, plane, pdp


def host_for(kind, plane, pdp):
    if kind == "ac_request":
        return pdp
    return plane._origin if kind == "prp_pull" else plane._hosts["pdp"]


def host_state(federation, plane, pdp):
    replica = plane._hosts["pdp"].replica
    return (
        replica.version_count(),
        replica.records_applied,
        replica.records_duplicate,
        sorted(replica._staged),
        plane._origin.pulls_served,
        pdp.pending_evaluations,
        federation.sim.pending_events,
        federation.network.stats.sent,
    )


def host_decodes(kind, payload):
    """True if the host must take ``payload``: it decodes and every record is authentic."""
    if kind == "ac_request":
        try:
            AccessRequest.from_dict(payload)
        except ValidationError:
            return False
        return True
    if not isinstance(payload, dict):
        return False
    if kind == "prp_pull":
        vector = payload.get("vector", {})
        have = vector.get(ORIGIN, 0) if isinstance(vector, dict) else None
        return type(have) is int and have >= 0
    records = [payload.get("record")] if kind == "prp_publish" else payload.get("records")
    try:
        if not isinstance(records, list):
            return False
        for record in records:
            check_record(record)
    except ValidationError:
        return False
    return all(
        record["version"] <= 1
        or PolicyVersion(0, record["document"], 0.0, "").fingerprint == record["fingerprint"]
        for record in records
    )


def deliver_to_host(kind, payload):
    """Hand one message to a PRP host or the PDP; returns what must hold afterwards."""
    federation, plane, pdp = policy_hosts()
    host = host_for(kind, plane, pdp)
    before = host_state(federation, plane, pdp)
    well_formed = host_decodes(kind, payload)
    src = plane._hosts["pdp"].address
    host.receive(Message(src=src, dst=host.address, kind=kind, payload=payload, msg_id="fuzz"))
    if not well_formed:
        assert host_state(federation, plane, pdp) == before
    assert federation.network.stats.malformed == ({} if well_formed else {(host.address, kind): 1})
    return well_formed


class TestHostReceive:
    @pytest.mark.parametrize("kind", HOST_KINDS)
    def test_host_drops_and_counts_a_malformed_message(self, kind):
        for payload in [["not", "an", "object"], "x", None, *MALFORMED_HOST_MESSAGES[kind]]:
            assert not deliver_to_host(kind, payload)

    def test_genuine_messages_still_get_through(self):
        for kind in HOST_KINDS:
            assert deliver_to_host(kind, GENUINE_HOST_MESSAGES[kind])

    def test_a_forged_record_stops_its_sync_batch(self):
        _federation, plane, _pdp = policy_hosts()
        host = plane._hosts["pdp"]
        third = {**FORGED, "version": 3}
        host.receive(gossip_message("prp_sync", {"records": [V2, third]}, dst=host.address))
        # Version 2 passed its own fingerprint check; the forged one did not.
        assert host.replica.version_count() == 2 and not host.replica._staged
        assert host.network.stats.malformed == {(host.address, "prp_sync"): 1}

    @pytest.mark.parametrize(
        "target,kind,payload",
        [
            ("replica", "prp_publish", {}),
            ("replica", "prp_publish", {"record": {"version": 1}}),
            ("replica", "prp_publish", {"record": FORGED}),
            ("replica", "prp_sync", {"records": 5}),
            ("origin", "prp_pull", {"vector": 7}),
            ("origin", "prp_pull", {"vector": {ORIGIN: "x"}}),
            ("pdp", "ac_request", {}),
            ("pdp", "ac_request", []),
        ],
    )
    def test_a_malformed_message_does_not_abort_the_run(self, target, kind, payload):
        stack = MonitoredFederation.build(
            healthcare_scenario(),
            seed=5,
            with_drams=False,
            plane=SinglePdpPlane(),
            policy_plane=ReplicatedPrpPlane(),
        )
        policy_plane = stack.policy_plane
        host = {
            "replica": policy_plane._hosts["pdp"],
            "origin": policy_plane._origin,
            "pdp": stack.plane.services[0],
        }[target]
        pep = next(iter(stack.peps.values()))
        stack.issue_requests(5, start_at=0.1)
        stack.federation.network.send(pep.address, host.address, kind, payload)
        stack.run(until=10.0)
        assert len(stack.outcomes) == 5
        assert stack.run_summary()["network"]["malformed"] == {host.address: {kind: 1}}


class TestIssueCases:
    def test_bad_signature_encoding_is_a_validation_error(self):
        data = alice_tx().to_dict()
        data["signature"] = {"e": "zz"}
        with pytest.raises(ValidationError):
            Transaction.from_dict(data)
        block = dict(BLOCK_DICT, miner_signature={"e": "zz", "s": "0x1"})
        with pytest.raises(ValidationError):
            Block.from_dict(block)

    @pytest.mark.parametrize("payload", [[], ["tx"], "tx", 7, None, {"args": []}])
    def test_non_object_payloads_are_validation_errors(self, payload):
        for decode in DECODERS.values():
            with pytest.raises(ValidationError):
                decode(payload)

    @pytest.mark.parametrize("kind", KINDS)
    def test_node_drops_and_counts_a_malformed_message(self, kind):
        for payload in [["not", "an", "object"], "x", None, *MALFORMED[kind]]:
            assert not deliver(kind, payload)

    def test_genuine_messages_still_get_through(self):
        assert deliver("bc_tx", alice_tx().to_dict())
        assert deliver("bc_block", BLOCK_DICT)
        for kind, payload in GENUINE_REQUESTS.items():
            assert deliver(kind, payload)

    @pytest.mark.parametrize("kind", sorted(MALFORMED_REPLIES))
    def test_light_client_drops_and_counts_a_malformed_reply(self, kind):
        for payload in [["not", "an", "object"], "x", None, *MALFORMED_REPLIES[kind]]:
            assert not deliver_reply(kind, payload)

    def test_genuine_replies_still_get_through(self):
        headers, consumer, net = light_clients("c-1")
        headers.receive(reply("bc_headers", GENUINE_REPLIES["bc_headers"]))
        assert headers.height == 1 and not headers._inflight
        consumer.receive(reply("bc_proof", GENUINE_REPLIES["bc_proof"]))
        # Fetched and checked against the synced header: the kvstore
        # transaction is on chain, but it is no monitor log entry.
        assert consumer.rejections == [("c-1", "not-a-monitor-log-tx")]
        assert net.stats.malformed == {}

    def test_evidence_that_would_not_hash_is_a_malformed_proof_reply(self):
        _headers, consumer, net = light_clients("c-1")
        proof = {"leaf_index": 0, "leaf": "ab" * 32, "path": [[5, True]]}
        consumer.receive(reply("bc_proof", {**GENUINE_REPLIES["bc_proof"], "proof": proof}))
        assert consumer.rejections == [("c-1", "malformed-proof-reply")]
        assert net.stats.malformed == {} and consumer.outstanding == 0

    @pytest.mark.parametrize(
        "evidence",
        [
            {"proof": {"leaf_index": float("inf"), "leaf": "ab" * 32, "path": []}},
            {"proof": {}},
            {"proof": None},
            {"tree_size": float("inf")},
            {"tree_size": "x"},
            {"tx": {}},
            {"header": []},
        ],
        ids=["inf-leaf", "no-proof", "null-proof", "inf-size", "text-size", "bad-tx", "list-header"],
    )
    def test_evidence_that_does_not_decode_is_a_malformed_proof_reply(self, evidence):
        _headers, consumer, net = light_clients("c-1")
        consumer.receive(reply("bc_proof", {**GENUINE_REPLIES["bc_proof"], **evidence}))
        assert consumer.rejections == [("c-1", "malformed-proof-reply")]
        assert net.stats.malformed == {} and consumer.outstanding == 0


class TestDecodeFuzz:
    @given(wire_values)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_json_raises_only_validation_error(self, data):
        for kind in DECODERS:
            decodes(kind, data)

    @given(mutated(transactions().map(Transaction.to_dict)))
    @example({**alice_tx().to_dict(), "submitted_at": 10**400})
    @example({**alice_tx().to_dict(), "tx_id": ["unhashable"]})
    @settings(max_examples=200, deadline=None)
    def test_mutated_transaction_raises_only_validation_error(self, data):
        decodes("bc_tx", data)

    @given(mutated(BLOCK_DICT))
    @example({**BLOCK_DICT, "header": {**BLOCK_DICT["header"], "nonce": float("inf")}})
    @example({**BLOCK_DICT, "header": {**BLOCK_DICT["header"], "prev_hash": ["unhashable"]}})
    @settings(max_examples=200, deadline=None)
    def test_mutated_block_raises_only_validation_error(self, data):
        decodes("bc_block", data)

    @given(
        st.sampled_from(KINDS),
        st.one_of(
            wire_values,
            mutated(BLOCK_DICT),
            mutated(st.sampled_from(sorted(GENUINE_REQUESTS.values(), key=repr))),
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_node_receive_never_raises_and_keeps_its_state(self, kind, payload):
        deliver(kind, payload)

    @given(
        st.sampled_from(HOST_KINDS),
        st.one_of(
            wire_values,
            mutated(st.sampled_from([GENUINE_HOST_MESSAGES[kind] for kind in HOST_KINDS])),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_policy_and_pdp_hosts_never_raise_and_keep_their_state(self, kind, payload):
        deliver_to_host(kind, payload)

    @given(mutated(alice_tx().to_dict()))
    @settings(max_examples=60, deadline=None)
    def test_node_receive_survives_mutated_transactions(self, payload):
        deliver("bc_tx", payload)

    @given(st.one_of(wire_values, mutated(GENUINE_REPLIES["bc_headers"])))
    @settings(max_examples=120, deadline=None)
    def test_header_client_never_raises_and_keeps_its_state(self, payload):
        deliver_reply("bc_headers", payload)

    @given(st.one_of(wire_values, mutated(GENUINE_REPLIES["bc_proof"])))
    @settings(max_examples=120, deadline=None)
    def test_probe_consumer_never_raises_and_keeps_its_state(self, payload):
        deliver_reply("bc_proof", payload)


# -- the PEP's decisions and the Logging Interface's log entries ---------------------

DECISION_DICT = AccessDecision(
    "req-fuzz", "Permit", [{"id": "audit"}], policy_version=1, policy_fingerprint="f"
).to_dict()
ENTRY_DICT = LogEntry("c-1", EntryType.PEP_IN, "tenant-1", "pep", {"request_id": "r"}, 1.0).to_dict()
MONITOR_DECODERS = {"ac_response": AccessDecision.from_dict, "drams_log": LogEntry.from_dict}
GENUINE_MONITOR_MESSAGES = {"ac_response": DECISION_DICT, "drams_log": ENTRY_DICT}
MONITOR_KINDS = sorted(MONITOR_DECODERS)
MALFORMED_MONITOR_MESSAGES = {
    "ac_response": [
        {},
        {**DECISION_DICT, "decided_at": "x"},
        {**DECISION_DICT, "policy_version": float("inf")},
        {**DECISION_DICT, "decision": None},
        {**DECISION_DICT, "obligations": 5},
        {**DECISION_DICT, "obligations": ["audit"]},
    ],
    "drams_log": [
        {},
        {**ENTRY_DICT, "observed_at": "x"},
        {**ENTRY_DICT, "observed_at": 10**400},
        {**ENTRY_DICT, "entry_type": "pep-sideways"},
        {**ENTRY_DICT, "entry_type": ["pep-in"]},
        {**ENTRY_DICT, "payload": [["request_id", "r"]]},
    ],
}


@functools.lru_cache(maxsize=None)
def monitor_hosts():
    """A monitored stack with no request in flight, its first PEP and that tenant's LI.

    Shared by every case: a message that does not decode must leave it as
    it was, a decision nobody waits for is dropped, and a log entry that
    decodes is stored (which only the well-formed cases do).
    """
    reset_id_counter()
    stack = MonitoredFederation.build(
        healthcare_scenario(), clouds=2, seed=5, drams_config=fast_drams_config()
    )
    pep = next(iter(stack.peps.values()))
    return stack, pep, stack.drams.interfaces[pep.tenant_name]


def monitor_decodes(kind, payload):
    try:
        MONITOR_DECODERS[kind](payload)
    except ValidationError:
        return False
    return True


def monitor_state(stack, pep, li):
    return (
        len(pep.enforced),
        sorted(pep._pending),
        li.logs_submitted,
        li.logs_rejected,
        li._seq,
        [tx.tx_id for tx in li.node.mempool.pending()],
        stack.sim.pending_events,
        stack.federation.network.stats.sent,
    )


def deliver_to_monitor(kind, payload):
    """Hand one message to the PEP or the LI; returns whether it decoded."""
    stack, pep, li = monitor_hosts()
    host = pep if kind == "ac_response" else li
    malformed = stack.federation.network.stats.malformed
    before, expected = monitor_state(stack, pep, li), dict(malformed)
    well_formed = monitor_decodes(kind, payload)
    message = Message(src=pep.address, dst=host.address, kind=kind, payload=payload, msg_id="fuzz")
    host.receive(message)
    if not well_formed or kind == "ac_response":
        assert monitor_state(stack, pep, li) == before
    if not well_formed:
        expected[host.address, kind] = expected.get((host.address, kind), 0) + 1
    assert malformed == expected
    return well_formed


class TestMonitorReceive:
    @pytest.mark.parametrize("kind", MONITOR_KINDS)
    def test_decoders_raise_only_validation_error(self, kind):
        malformed = [[], ["not", "an", "object"], "x", 7, None, *MALFORMED_MONITOR_MESSAGES[kind]]
        for payload in malformed:
            with pytest.raises(ValidationError):
                MONITOR_DECODERS[kind](payload)

    @pytest.mark.parametrize("kind", MONITOR_KINDS)
    def test_host_drops_and_counts_a_malformed_message(self, kind):
        for payload in [[], "x", None, *MALFORMED_MONITOR_MESSAGES[kind]]:
            assert not deliver_to_monitor(kind, payload)

    def test_genuine_messages_still_get_through(self):
        for kind in MONITOR_KINDS:
            assert deliver_to_monitor(kind, GENUINE_MONITOR_MESSAGES[kind])
        assert AccessDecision.from_dict(DECISION_DICT).to_dict() == DECISION_DICT
        assert LogEntry.from_dict(ENTRY_DICT).to_dict() == ENTRY_DICT

    def test_malformed_messages_do_not_abort_the_run_and_are_reported(self):
        reset_id_counter()
        stack = MonitoredFederation.build(
            healthcare_scenario(), clouds=2, seed=5, drams_config=fast_drams_config()
        )
        pep = next(iter(stack.peps.values()))
        li = stack.drams.interfaces[pep.tenant_name]
        stack.start()
        stack.issue_requests(5, start_at=0.1)
        network = stack.federation.network
        stack.sim.schedule_at(0.2, lambda: network.send(pep.address, pep.address, "ac_response", {}))
        stack.sim.schedule_at(0.2, lambda: network.send(pep.address, li.address, "drams_log", []))
        stack.run(until=20.0)
        assert len(stack.outcomes) == 5 and stack.drams.analyser.checked == 5
        summary = stack.run_summary()
        assert summary["network"]["malformed"] == {
            pep.address: {"ac_response": 1},
            li.address: {"drams_log": 1},
        }
        assert summary["drams"]["logs_submitted"] == 4 * 5

    def test_drops_at_chain_nodes_and_header_clients_are_reported(self):
        reset_id_counter()
        stack = MonitoredFederation.build(
            healthcare_scenario(),
            clouds=2,
            seed=5,
            drams_config=fast_drams_config(),
            light_clients=True,
        )
        pep = next(iter(stack.peps.values()))
        node = stack.drams.nodes[pep.tenant_name]
        headers = stack.drams.header_clients[pep.tenant_name]
        stack.start()
        stack.issue_requests(5, start_at=0.1)
        network = stack.federation.network
        forged = {**alice_tx().to_dict(), "signature": {"e": "zz"}}
        stack.sim.schedule_at(0.2, lambda: network.send(pep.address, node.address, "bc_tx", forged))
        stack.sim.schedule_at(
            0.2, lambda: network.send(node.address, headers.address, "bc_headers", {"headers": 5})
        )
        stack.run(until=20.0)
        assert len(stack.outcomes) == 5 and stack.drams.analyser.checked == 5
        consumer = stack.light_clients[pep.tenant_name]
        assert consumer.receipts_accepted == len(pep.enforced) and consumer.outstanding == 0
        assert stack.run_summary()["network"]["malformed"] == {
            node.address: {"bc_tx": 1},
            headers.address: {"bc_headers": 1},
        }

    @given(
        st.sampled_from(MONITOR_KINDS),
        st.one_of(
            wire_values,
            mutated(st.sampled_from([GENUINE_MONITOR_MESSAGES[kind] for kind in MONITOR_KINDS])),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_hosts_never_raise_and_keep_their_state(self, kind, payload):
        deliver_to_monitor(kind, payload)


def spec_decodes(text):
    """Decode ``text`` as a spec: only ``ValidationError`` may escape."""
    try:
        return isinstance(spec_from_json(text), ScenarioSpec)
    except ValidationError:
        return False


class TestSpecDecode:
    MINIMAL = {"name": "s", "roles": ["r"], "tree": {"classes": 1}}

    @pytest.mark.parametrize(
        "document",
        [
            {**MINIMAL, "federation": {"bogus": 1}},
            {**MINIMAL, "tree": {"classes": 1, "bogus": 1}},
            {**MINIMAL, "federation": {"clouds": 2, "metro_median_latency": 0.002}},
            {"roles": ["r"], "tree": {"classes": 1}},
            [MINIMAL],
            "spec",
            None,
        ],
        ids=["federation-key", "tree-key", "metro-key", "no-name", "list", "string", "null"],
    )
    def test_malformed_specs_are_validation_errors(self, document):
        with pytest.raises(ValidationError):
            spec_from_json(json.dumps(document))

    def test_malformed_json_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            spec_from_json('{"name": ')

    def test_deeply_nested_json_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            spec_from_json("[" * 100_000)

    def test_genuine_specs_still_decode(self):
        assert spec_decodes(json.dumps(self.MINIMAL))
        for spec in PRESET_SPECS.values():
            assert spec_from_json(spec_to_json(spec)) == spec

    @given(spec_documents)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json_raises_only_validation_error(self, document):
        spec_decodes(json.dumps(document))


# -- documents that travel outside a message: receipts, proofs, fault plans ----------

PROOF_DICT = GENUINE_REPLIES["bc_proof"]["proof"]
RECEIPT_DICT = {
    "correlation_id": "c-1",
    "entry_type": EntryType.PDP_OUT,
    **{key: GENUINE_REPLIES["bc_proof"][key] for key in ("tx", "proof", "header", "tree_size")},
}
PLAN_DICT = FaultPlan(
    name="boundary",
    events=(
        partition(["a@t1"], ["b@t2"], at=0.5, heal_at=1.5, symmetric=False),
        link_degrade(["a@t1"], ["b@t2"], at=1.0, until=2.0, loss=0.1, reorder=0.01),
        crash("pdp-*@*", at=2.0, restart_at=3.0),
        clock_skew("pep@t1", 0.25, at=0.0, until=4.0),
    ),
).to_dict()
DOCUMENT_DECODERS = {
    "merkle-proof": MerkleProof.from_dict,
    "decision-receipt": DecisionReceipt.from_dict,
    "fault-plan": FaultPlan.from_dict,
}
GENUINE_DOCUMENTS = {
    "merkle-proof": PROOF_DICT,
    "decision-receipt": RECEIPT_DICT,
    "fault-plan": PLAN_DICT,
}


def with_event(**fields):
    """``PLAN_DICT`` with ``fields`` written into its link-degrade event."""
    events = [dict(event) for event in PLAN_DICT["events"]]
    events[1].update(fields)
    return {**PLAN_DICT, "events": events}


MALFORMED_DOCUMENTS = {
    "merkle-proof": [
        {},
        {**PROOF_DICT, "leaf_index": float("inf")},
        {**PROOF_DICT, "leaf_index": "x"},
        {**PROOF_DICT, "path": [["ab", True, 1]]},
        {**PROOF_DICT, "leaf": 5},
    ],
    "decision-receipt": [
        {},
        {**RECEIPT_DICT, "tree_size": float("inf")},
        {**RECEIPT_DICT, "proof": {**PROOF_DICT, "leaf_index": float("inf")}},
        {**RECEIPT_DICT, "correlation_id": 5},
        {**RECEIPT_DICT, "entry_type": ["pdp-out"]},
        {**RECEIPT_DICT, "proof": None},
    ],
    "fault-plan": [
        {"events": 5},
        with_event(at="x"),
        with_event(until="x"),
        with_event(loss="x"),
        with_event(skew="x"),
        with_event(at=float("nan")),
        with_event(until=float("inf")),
        with_event(at=True),
        with_event(at=10**400),
        with_event(symmetric=1),
    ],
}
DOCUMENT_KINDS = sorted(DOCUMENT_DECODERS)


def document_decodes(kind, document):
    """True if ``document`` decodes; the only permitted failure is ValidationError."""
    try:
        DOCUMENT_DECODERS[kind](document)
    except ValidationError:
        return False
    return True


class TestDocumentDecode:
    @pytest.mark.parametrize("kind", DOCUMENT_KINDS)
    def test_malformed_documents_are_validation_errors(self, kind):
        for document in [[], None, "x", 7, *MALFORMED_DOCUMENTS[kind]]:
            with pytest.raises(ValidationError):
                DOCUMENT_DECODERS[kind](document)

    def test_genuine_documents_round_trip(self):
        assert MerkleProof.from_dict(PROOF_DICT).to_dict() == PROOF_DICT
        assert DecisionReceipt.from_dict(RECEIPT_DICT).to_dict() == RECEIPT_DICT
        assert FaultPlan.from_dict(PLAN_DICT).to_dict() == PLAN_DICT

    @given(
        st.sampled_from(DOCUMENT_KINDS),
        st.one_of(wire_values, mutated(st.sampled_from(list(GENUINE_DOCUMENTS.values())))),
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_raises_only_validation_error(self, kind, document):
        document_decodes(kind, document)
