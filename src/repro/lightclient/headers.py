"""Header-only chain tracking.

A :class:`HeaderClient` holds the main chain as a list of validated
:class:`~repro.blockchain.block.BlockHeader` objects — no bodies, no
contract state.  It syncs from any full node over the ``bc_header_sync``
protocol: the client sends a Bitcoin-style *locator* (recent branch
hashes, then exponentially spaced ones back to genesis), the server
replies with the main-chain headers above the highest locator hash it
recognises, and the client pages until it reaches the served tip.

Every received header is validated the way a full node validates one,
minus the body checks it cannot perform:

- parent link and height continuity against the already-verified branch,
- non-decreasing timestamps,
- the difficulty retarget schedule (the full nodes' own rule, ``blockchain.pow``),
- in ``real`` PoW mode, that the header hash meets its work target.

Batches extending a stale branch are adopted only if their cumulative
work beats the current one (total-work fork choice, ties to the lower tip
hash — the same rule full nodes apply), so a light client follows reorgs
without ever trusting the server's word for anything but data
availability.
"""

from __future__ import annotations

from typing import Optional

from repro.blockchain.block import BlockHeader, make_genesis
from repro.blockchain.config import BlockchainConfig
from repro.blockchain.pow import block_work, expected_difficulty, meets_target, wins_fork_choice
from repro.common.errors import ValidationError
from repro.crypto.hashing import hash_value
from repro.lightclient.sideband import SidebandHost
from repro.simnet.network import Message, Network


class HeaderClient(SidebandHost):
    """Tracks the chain's main branch from headers served by a full node."""

    #: Dense locator prefix before the spacing starts doubling.
    LOCATOR_DENSE = 8
    #: Headers requested per sync round.
    BATCH = 64

    def __init__(self, network: Network, address: str,
                 config: BlockchainConfig, server: str) -> None:
        super().__init__(network, address)
        self.config = config
        self.server = server
        genesis = make_genesis(config.chain_id, hash_value(config.to_dict()),
                               config.difficulty_bits)
        #: Every validated header ever accepted, by hash (reorged-away
        #: headers stay — they were valid when seen and are cheap).
        self.headers: dict[str, BlockHeader] = {genesis.hash: genesis.header}
        #: Main-branch hashes, indexed by height.
        self._branch: list[str] = [genesis.hash]
        #: Cumulative work at each known header.
        self._work: dict[str, float] = {genesis.hash: 0.0}
        self.headers_validated = 0
        self.headers_rejected = 0
        #: ``bc_headers`` replies dropped at the decode boundary.
        self.malformed_messages_seen = 0
        #: Cryptographic hash evaluations spent on validation — the cost
        #: metric the E16 bench compares against full-node replay.
        self.hashes_verified = 0
        self.sync_rounds = 0
        self.reorgs = 0
        self._inflight = False
        self._inflight_stalls = 0

    # -- inspection -----------------------------------------------------------

    @property
    def head(self) -> BlockHeader:
        return self.headers[self._branch[-1]]

    @property
    def height(self) -> int:
        return len(self._branch) - 1

    def header_for(self, block_hash: str) -> Optional[BlockHeader]:
        """The header at ``block_hash`` iff it sits on the verified branch."""
        header = self.headers.get(block_hash)
        if header is None:
            return None
        if header.height < len(self._branch) and self._branch[header.height] == block_hash:
            return header
        return None

    def confirmations_of(self, block_hash: str) -> int:
        """Branch depth of ``block_hash`` (0 if absent or reorged away)."""
        header = self.header_for(block_hash)
        if header is None:
            return 0
        return self.height - header.height + 1

    # -- sync protocol ---------------------------------------------------------

    def locator(self) -> list[str]:
        """Branch hashes newest-first: dense near the tip, then doubling."""
        hashes: list[str] = []
        index = len(self._branch) - 1
        step = 1
        while index > 0:
            hashes.append(self._branch[index])
            if len(hashes) >= self.LOCATOR_DENSE:
                step *= 2
            index -= step
        hashes.append(self._branch[0])
        return hashes

    def sync(self) -> None:
        """Request the next header batch (no-op while a round is in flight).

        A crashed server or partitioned link can swallow the request or
        the reply; one lost round must not wedge the client, so after two
        stalled cadence ticks the in-flight guard yields and the request
        is reissued.
        """
        if self._inflight:
            self._inflight_stalls += 1
            if self._inflight_stalls < 2:
                return
        self._inflight = True
        self._inflight_stalls = 0
        self.sync_rounds += 1
        self.send(self.server, "bc_header_sync",
                  {"locator": self.locator(), "limit": self.BATCH})

    def receive(self, message: Message) -> None:
        if message.kind != "bc_headers":
            return
        payload = message.payload
        try:
            # Decode everything before touching any state: a malformed
            # reply must not even release the in-flight guard.
            if not isinstance(payload, dict):
                raise TypeError("header reply must be an object")
            batch = [BlockHeader.from_dict(data) for data in payload.get("headers", [])]
            tip_height = int(payload.get("tip_height", 0))
        except (TypeError, ValueError, OverflowError, ValidationError):
            self.malformed_messages_seen += 1
            return
        self._inflight = False
        self._inflight_stalls = 0
        accepted = self._ingest(batch)
        if accepted and tip_height > self.height:
            # Page until we reach the tip the server advertised.
            self.sync()

    # -- validation ------------------------------------------------------------

    def _ingest(self, batch: list[BlockHeader]) -> bool:
        """Validate a served batch and adopt it if it wins fork choice."""
        if not batch:
            return False
        anchor_height = batch[0].height - 1
        if not 0 <= anchor_height < len(self._branch):
            self.headers_rejected += len(batch)
            return False
        if self._branch[anchor_height] != batch[0].prev_hash:
            # The server anchored on a branch we no longer follow; the
            # next round's locator will renegotiate the fork point.
            self.headers_rejected += len(batch)
            return False

        new_headers: dict[str, BlockHeader] = {}

        def lookup(block_hash: str) -> BlockHeader:
            found = new_headers.get(block_hash)
            return found if found is not None else self.headers[block_hash]

        candidate: list[str] = []
        parent_hash = batch[0].prev_hash
        parent = self.headers[parent_hash]
        work = self._work[parent_hash]
        for header in batch:
            if (header.prev_hash != parent_hash
                    or header.height != parent.height + 1
                    or header.timestamp < parent.timestamp):
                self.headers_rejected += len(batch)
                return False
            expected_bits = expected_difficulty(parent, lookup, self.config)
            if abs(header.difficulty_bits - expected_bits) > 1e-9:
                self.headers_rejected += len(batch)
                return False
            block_hash = header.block_hash()
            self.hashes_verified += 1
            if self.config.pow_mode == "real" and not meets_target(
                    block_hash, header.difficulty_bits):
                self.headers_rejected += len(batch)
                return False
            work += block_work(header.difficulty_bits)
            new_headers[block_hash] = header
            candidate.append(block_hash)
            parent_hash, parent = block_hash, header

        tip_hash = self._branch[-1]
        if not wins_fork_choice(work, candidate[-1], self._work[tip_hash], tip_hash):
            return False
        if anchor_height < self.height:
            self.reorgs += 1
        self.headers.update(new_headers)
        cumulative = self._work[batch[0].prev_hash]
        for block_hash in candidate:
            cumulative += block_work(self.headers[block_hash].difficulty_bits)
            self._work[block_hash] = cumulative
        self._branch = self._branch[:anchor_height + 1] + candidate
        self.headers_validated += len(candidate)
        return True
