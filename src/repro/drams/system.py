"""DRAMS deployment orchestrator.

Wires the full Figure 1 stack over a federation:

- one blockchain node + one Logging Interface per tenant (members and
  infrastructure), full-mesh gossip, all nodes mining (private PoW chain);
- probing agents on every member-tenant PEP and on every PDP replica the
  decision plane deploys (one probe per shard, following elastic
  membership live: shards added at runtime are probed before their first
  request, drained shards keep their probe until quiescent);
- the monitor smart contract deployed chain-wide;
- the Analyser with its own blockchain node, registered in the
  infrastructure tenant but in a separate section from the access control
  components (its node gives it an independent view of the chain, and its
  own PRP replica — assigned by the policy distribution plane — gives it
  an independent view of the policy history);
- a federation-wide :class:`~repro.drams.alerts.AlertBus` fed by every LI;
- periodic ``tick`` transactions driving the contract's timeout sweep, and
  optional periodic TPM attestation of the Logging Interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.blockchain.chain import VerifiedSet
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.contracts import ContractRegistry
from repro.blockchain.node import BlockchainNode
from repro.common.errors import ValidationError
from repro.common.ids import new_id
from repro.crypto.signatures import SigningKey, VerifyingKey
from repro.crypto.symmetric import SymmetricKey
from repro.crypto.tpm import SimulatedTpm
from repro.drams.alerts import Alert, AlertBus, AlertType
from repro.drams.analyser import Analyser
from repro.drams.contract import CONTRACT_NAME, MonitorContract
from repro.drams.logs import EntryType
from repro.drams.logging_interface import LoggingInterface
from repro.drams.probe import (
    ProbeAgent,
    attach_pep_probes,
    attach_plane_probes,
    follow_plane_membership,
)
from repro.federation.federation import Federation
from repro.accesscontrol.pdp_service import PdpService
from repro.accesscontrol.pep import PolicyEnforcementPoint
from repro.accesscontrol.plane import DecisionPlane
from repro.policydist.plane import PolicyDistributionPlane

#: Seed of the federation key and of every component identity
#: (``KEY_ENTROPY + b"|" + owner``): deterministic, so runs reproduce.
KEY_ENTROPY = b"drams-federation-key"
#: Light-client cadence (:meth:`DramsSystem.attach_light_clients`):
#: header-sync and receipt-sweep periods in simulated seconds.
LIGHT_SYNC_INTERVAL = 0.5
LIGHT_SWEEP_INTERVAL = 1.0


def li_measurement(address: str) -> dict:
    """What a clean Logging Interface at ``address`` extends into its TPM."""
    return {"component": address, "role": "logging-interface", "version": 1}


@dataclass
class DramsConfig:
    """Monitoring-deployment parameters."""

    chain: BlockchainConfig = field(default_factory=lambda: BlockchainConfig(
        chain_id="drams-chain",
        difficulty_bits=12.0,
        target_block_interval=1.0,
        pow_mode="simulated",
        confirmations=2,
    ))
    timeout_blocks: int = 6
    retention_blocks: int = 200
    tick_interval: float = 2.0
    analyser_sweep_interval: float = 2.0
    node_hashrate: float = 1024.0
    use_tpm: bool = True
    attestation_interval: float = 0.0  # seconds; 0 disables
    store_ciphertexts: bool = True
    # Policy provenance audit (see repro.policydist): honest replica skew
    # up to this many versions behind the policy in force is classified as
    # churn; anything further is a policy-violation alert.
    policy_staleness_bound: int = 1
    # How long (simulated seconds) the Analyser waits for its own PRP
    # replica to catch up before an unknown decision fingerprint is
    # reported as a tampered policy.  Must cover the distribution plane's
    # propagation delay plus one anti-entropy round.
    unknown_policy_grace: float = 5.0
    # Ablation knobs (benchmarks/bench_ablations.py); keep defaults in production.
    expected_entries: tuple = EntryType.ALL
    enable_leg_matching: bool = True
    # Analyser mode: "full" audits every correlation (the paper's
    # exhaustive checker); "sampling" deploys a
    # :class:`repro.lightclient.sampling.SamplingAnalyser` that audits a
    # seeded hash-fraction with a closed-form detection bound.
    analyser_mode: str = "full"
    sample_rate: float = 0.1
    sample_seed: "int | str" = 0

    def __post_init__(self) -> None:
        if self.timeout_blocks < 1:
            raise ValidationError("timeout_blocks must be >= 1")
        if self.tick_interval <= 0:
            raise ValidationError("tick_interval must be positive")
        if self.policy_staleness_bound < 0:
            raise ValidationError("policy_staleness_bound must be >= 0")
        if self.unknown_policy_grace < 0:
            raise ValidationError("unknown_policy_grace must be >= 0")
        if self.analyser_mode not in ("full", "sampling"):
            raise ValidationError(
                f"analyser_mode must be 'full' or 'sampling', got {self.analyser_mode!r}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValidationError(
                f"sample_rate must be in (0, 1], got {self.sample_rate}")


class DramsSystem:
    """The deployed monitoring system for one federation."""

    def __init__(self, federation: Federation,
                 policy_plane: PolicyDistributionPlane,
                 plane: DecisionPlane,
                 peps: dict[str, PolicyEnforcementPoint],
                 config: Optional[DramsConfig] = None) -> None:
        for handle, kind in ((policy_plane, PolicyDistributionPlane), (plane, DecisionPlane)):
            if not isinstance(handle, kind):
                raise ValidationError(
                    f"expected a {kind.__name__}, got {type(handle).__name__}")
        self.federation = federation
        # The policy distribution plane decides how policy reaches each
        # consumer.  ``self.prp`` is its authority store; the Analyser
        # reads from its *own* replica so a tampered PDP-side replica can
        # never alter the auditor's view.
        self.policy_plane = policy_plane.deploy(federation)
        self.prp = self.policy_plane.authority
        # The decision plane decides how many PDP evaluators exist at any
        # moment (elastic planes change membership mid-run; coverage
        # follows via _on_plane_membership).
        self.plane = plane
        self.pdp_services = self.plane.services
        if not self.pdp_services:
            raise ValidationError("decision plane has no deployed PDP services to monitor")
        #: The primary evaluator — kept as an attribute because the threat
        #: experiments compromise it by name (`drams.pdp_service`).
        self.pdp_service = self.pdp_services[0]
        self.peps = dict(peps)
        self.config = config or DramsConfig()
        self.alerts = AlertBus()
        self.federation_key = SymmetricKey.generate(entropy=KEY_ENTROPY)
        self.nodes: dict[str, BlockchainNode] = {}
        self.interfaces: dict[str, LoggingInterface] = {}
        self.tpms: dict[str, SimulatedTpm] = {}
        self.expected_pcrs: dict[str, str] = {}
        self.probes: dict[str, ProbeAgent] = {}
        self.analyser: Optional[Analyser] = None
        #: Light-client plane (attach_light_clients): per-tenant header
        #: clients and receipt-auditing consumers.  Sideband by design —
        #: attaching them leaves the monitored system bit-identical.
        self.header_clients: dict[str, "HeaderClient"] = {}
        self.light_clients: dict[str, "LightProbeConsumer"] = {}
        self._keys: dict[str, VerifyingKey] = {}
        self._signing: dict[str, SigningKey] = {}
        self._stoppers: list[Callable[[], None]] = []
        self._started = False
        self.attestation_rounds = 0
        self._deploy()

    # -- key management ---------------------------------------------------------

    def _mint_identity(self, owner: str) -> SigningKey:
        key = SigningKey.generate(KEY_ENTROPY + b"|" + owner.encode())
        self._signing[owner] = key
        self._keys[owner] = key.public
        return key

    def _key_lookup(self, owner: str) -> Optional[VerifyingKey]:
        return self._keys.get(owner)

    # -- deployment ----------------------------------------------------------------

    def _deploy(self) -> None:
        registry = ContractRegistry()
        registry.deploy(MonitorContract(
            timeout_blocks=self.config.timeout_blocks,
            retention_blocks=self.config.retention_blocks,
            store_ciphertexts=self.config.store_ciphertexts,
            expected_entries=tuple(self.config.expected_entries),
            enable_leg_matching=self.config.enable_leg_matching,
        ))
        # One verified-set for the whole deployment: a signature or Merkle
        # root checked by one replica is not re-checked by the others (the
        # soundness argument is in ``Blockchain.__init__``).
        verified: VerifiedSet = set()
        tenant_names = [t.name for t in self.federation.member_tenants]
        tenant_names.append(self.federation.infrastructure_tenant.name)

        # Blockchain node + Logging Interface per tenant.
        for tenant_name in tenant_names:
            tenant = self.federation.tenant(tenant_name)
            node_address = tenant.address("bcnode")
            li_address = tenant.address("li")
            node_key = self._mint_identity(node_address)
            li_key = self._mint_identity(li_address)
            node = BlockchainNode(
                self.federation.network, node_address, self.config.chain,
                registry, self.federation.rng, key_lookup=self._key_lookup,
                signing_key=node_key, hashrate=self.config.node_hashrate,
                verified=verified)
            tenant.register_host(node_address)
            tpm = None
            if self.config.use_tpm:
                tpm = SimulatedTpm(tpm_id=f"tpm:{li_address}",
                                   endorsement_seed=li_address.encode())
                tpm.extend_pcr(li_measurement(li_address))
            li = LoggingInterface(
                self.federation.network, li_address, tenant_name, node,
                signing_key=li_key, federation_key=self.federation_key, tpm=tpm)
            tenant.register_host(li_address)
            li.on_alert(self.alerts.publish)
            self.nodes[tenant_name] = node
            self.interfaces[tenant_name] = li
            if tpm is not None:
                self.tpms[li_address] = tpm
                self.expected_pcrs[li_address] = tpm.pcr

        # The Analyser: its own node, infrastructure tenant, separate section.
        infra = self.federation.infrastructure_tenant
        analyser_node_address = infra.address("bcnode-analyser")
        analyser_address = infra.address("analyser")
        analyser_node_key = self._mint_identity(analyser_node_address)
        analyser_key = self._mint_identity(analyser_address)
        analyser_node = BlockchainNode(
            self.federation.network, analyser_node_address, self.config.chain,
            registry, self.federation.rng, key_lookup=self._key_lookup,
            signing_key=analyser_node_key, hashrate=self.config.node_hashrate,
            verified=verified)
        infra.register_host(analyser_node_address)
        analyser_kwargs = dict(
            signing_key=analyser_key, federation_key=self.federation_key,
            prp=self.policy_plane.retrieval_point_for("analyser"),
            policy_staleness_bound=self.config.policy_staleness_bound,
            unknown_policy_grace=self.config.unknown_policy_grace)
        if self.config.analyser_mode == "sampling":
            from repro.lightclient.sampling import SamplingAnalyser

            self.analyser = SamplingAnalyser(
                self.federation.network, analyser_address, analyser_node,
                sample_rate=self.config.sample_rate,
                sample_seed=self.config.sample_seed, **analyser_kwargs)
        else:
            self.analyser = Analyser(
                self.federation.network, analyser_address, analyser_node,
                **analyser_kwargs)
        infra.register_host(analyser_address)
        self.nodes["__analyser__"] = analyser_node

        # Every node serves light-client proof requests addressed by
        # monitor-contract coordinates (correlation id + entry type).
        from repro.lightclient.receipts import monitor_tx_resolver

        for node in self.nodes.values():
            node.tx_resolver = monitor_tx_resolver(node.chain)

        # Full-mesh gossip between all nodes.
        node_addresses = [node.address for node in self.nodes.values()]
        for node in self.nodes.values():
            node.connect(node_addresses)

        # Probes: each member PEP, plus *every* PDP replica the decision
        # plane deployed in the infrastructure tenant — monitoring
        # coverage follows the plane, so sharding never opens an
        # unobserved decision path.
        infra_li = self.interfaces[infra.name].address
        for tenant_name, pep in self.peps.items():
            li = self.interfaces.get(tenant_name)
            if li is None:
                raise ValidationError(f"no logging interface for tenant {tenant_name!r}")
            self.probes[f"pep:{tenant_name}"] = attach_pep_probes(pep, li.address)
        self.probes.update(attach_plane_probes(self.plane, infra.name, infra_li))
        # Elastic planes announce membership changes; monitoring coverage
        # must follow them live — a probe attaches to a new shard before
        # its first request and detaches from a drained shard only after
        # its last reply, so coverage never gaps.  The shared helper
        # implements the probe protocol; the local listener only keeps
        # ``pdp_services`` aligned with the plane.
        follow_plane_membership(self.plane, self.probes, infra.name, infra_li)
        self.plane.on_membership(self._track_plane_membership)

        self.federation.finalize_topology()

    def attach_light_clients(self, tenants: Optional[list[str]] = None,
                             min_confirmations: Optional[int] = None) -> dict:
        """Attach per-tenant light auditors (header client + receipt consumer).

        Each named member tenant gets a :class:`HeaderClient` syncing
        headers from the tenant's own blockchain node and a
        :class:`LightProbeConsumer` fetching and verifying a decision
        receipt for every access its PEP enforces.  Both are *sideband*
        hosts: they are not registered with any tenant (so topology
        finalisation never re-profiles their links), their links are
        RNG-free constant-latency pairs, and their message ids come from
        namespaced local counters — attaching them leaves the monitored
        system's decisions, alerts and chain bit-identical.

        Safe to call before or after :meth:`start`; returns the consumer
        map.  Idempotent per tenant.
        """
        from repro.lightclient.consumer import LightProbeConsumer
        from repro.lightclient.headers import HeaderClient
        from repro.lightclient.sideband import sideband_link

        names = (list(tenants) if tenants is not None
                 else [t.name for t in self.federation.member_tenants])
        depth = (min_confirmations if min_confirmations is not None
                 else self.config.chain.confirmations)
        network = self.federation.network
        for tenant_name in names:
            if tenant_name in self.light_clients:
                continue
            pep = self.peps.get(tenant_name)
            if pep is None:
                raise ValidationError(
                    f"no PEP to audit for tenant {tenant_name!r}")
            server = self.nodes[tenant_name].address
            header_client = HeaderClient(
                network, f"lc-headers@{tenant_name}", self.config.chain, server)
            consumer = LightProbeConsumer(
                network, f"lc-audit@{tenant_name}", header_client, server,
                federation_key=self.federation_key, min_confirmations=depth)
            sideband_link(network, header_client.address, server)
            sideband_link(network, consumer.address, server)
            consumer.attach_pep(pep)
            self.header_clients[tenant_name] = header_client
            self.light_clients[tenant_name] = consumer
            if self._started:
                self._arm_light_client(tenant_name)
        return dict(self.light_clients)

    def _arm_light_client(self, tenant_name: str) -> None:
        sim = self.federation.sim
        header_client = self.header_clients[tenant_name]
        consumer = self.light_clients[tenant_name]
        # No jitter: jitter callbacks would draw from a shared RNG stream.
        self._stoppers.append(sim.every(
            LIGHT_SYNC_INTERVAL, header_client.sync,
            label=f"lc-sync:{tenant_name}"))
        self._stoppers.append(sim.every(
            LIGHT_SWEEP_INTERVAL, consumer.sweep,
            label=f"lc-sweep:{tenant_name}"))

    def _track_plane_membership(self, event: str, service: PdpService) -> None:
        if event in ("added", "restarted") and service not in self.pdp_services:
            self.pdp_services.append(service)
        elif event in ("removed", "crashed") and service in self.pdp_services:
            # A removed shard is quiescent and off the network — and a
            # crashed one is abruptly so; leaving either listed would let
            # shard-indexed experiments target a dead host.  The primary
            # (``pdp_service``) stays pinned either way, and a restarted
            # shard re-lists itself.
            self.pdp_services.remove(service)

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """Start mining, ticking, sweeping and (optionally) attestation."""
        if self._started:
            return
        self._started = True
        sim = self.federation.sim
        # Re-arm the policy plane's anti-entropy after a stop() (no-op on
        # first start — the plane runs from deployment).
        self.policy_plane.start()
        for node in self.nodes.values():
            node.start()
        infra_li = self.interfaces[self.federation.infrastructure_tenant.name]
        jitter_rng = self.federation.rng.fork("drams-ticks")
        self._stoppers.append(sim.every(
            self.config.tick_interval, lambda: infra_li.submit_tick(),
            label="drams-tick", jitter=lambda: jitter_rng.uniform(0, 0.05)))
        if self.analyser is not None and self.config.analyser_sweep_interval > 0:
            self._stoppers.append(sim.every(
                self.config.analyser_sweep_interval,
                lambda: self.analyser.sweep(), label="analyser-sweep"))
        if self.config.use_tpm and self.config.attestation_interval > 0:
            self._stoppers.append(sim.every(
                self.config.attestation_interval, self.run_attestation_round,
                label="tpm-attestation"))
        for tenant_name in self.light_clients:
            self._arm_light_client(tenant_name)

    def stop(self) -> None:
        for stopper in self._stoppers:
            stopper()
        self._stoppers.clear()
        for node in self.nodes.values():
            node.stop()
        # The policy plane's anti-entropy timers are periodic activity of
        # the monitored deployment too; a stopped system must go quiet.
        self.policy_plane.stop()
        self._started = False

    # -- attestation ------------------------------------------------------------------

    def run_attestation_round(self) -> list[str]:
        """Challenge every TPM-protected LI; alert on measurement drift.

        Returns the addresses that failed attestation in this round.
        """
        self.attestation_rounds += 1
        failed = []
        for address, tpm in self.tpms.items():
            nonce = new_id("attest")
            report = tpm.attest(nonce)
            expected = self.expected_pcrs[address]
            if not report.verify(tpm.endorsement_key, expected, nonce):
                failed.append(address)
                self.alerts.publish(Alert(
                    alert_type=AlertType.ATTESTATION_FAILURE,
                    correlation_id=address,
                    details={"expected_pcr": expected, "reported_pcr": report.pcr_value},
                    block_height=self.reference_chain().height,
                    raised_at=self.federation.sim.now,
                ))
        return failed

    # -- inspection ----------------------------------------------------------------------

    def reference_chain(self):
        """The infrastructure tenant's chain view (for metrics/queries)."""
        return self.nodes[self.federation.infrastructure_tenant.name].chain

    def monitor_state(self) -> dict:
        return self.reference_chain().state_of(CONTRACT_NAME)

    def commit_latencies(self) -> list[float]:
        """Log-submission → finality latencies across all LIs."""
        out: list[float] = []
        for li in self.interfaces.values():
            out.extend(li.commit_latencies)
        return out

    def stats(self) -> dict:
        state = self.monitor_state()
        chain = self.reference_chain()
        out = {
            "chain_height": chain.height,
            "reorgs": chain.reorgs,
            "monitor": dict(state["stats"]),
            "alerts_by_type": {t.value: self.alerts.count(t)
                               for t in AlertType if self.alerts.count(t)},
            "logs_submitted": sum(li.logs_submitted for li in self.interfaces.values()),
            "analyser_checked": self.analyser.checked if self.analyser else 0,
            "policy_audit": {
                "churn_observed": self.analyser.churn_observed if self.analyser else 0,
                "policy_violations": (self.analyser.policy_violations_reported
                                      if self.analyser else 0),
                "distribution": self.policy_plane.describe(),
            },
        }
        if self.light_clients:
            out["light_clients"] = {
                name: consumer.stats()
                for name, consumer in self.light_clients.items()}
        sampling_stats = getattr(self.analyser, "sampling_stats", None)
        if callable(sampling_stats):
            out["sampling"] = sampling_stats()
        return out
