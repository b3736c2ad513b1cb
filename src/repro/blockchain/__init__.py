"""Private smart-contract blockchain.

DRAMS stores encrypted logs on a smart-contract blockchain and runs its
matching algorithms as contract code.  This package is a from-scratch
permissioned PoW chain with:

- signed transactions invoking named contracts (:mod:`transaction`),
- blocks with Merkle-committed bodies (:mod:`block`),
- proof-of-work with *tunable difficulty* and periodic retargeting
  (:mod:`pow`), in either ``real`` (hash-grinding) or ``simulated``
  (statistically-timed) mode — the paper's "PoW parameters can be
  dynamically tuned" lever,
- a deterministic smart-contract engine with event logs
  (:mod:`contracts`),
- a fork-choice-by-total-work chain with full validation and state
  replay (:mod:`chain`),
- a gossiping miner/validator node on the simulated network (:mod:`node`).
"""

from repro.blockchain.config import BlockchainConfig
from repro.blockchain.transaction import Transaction
from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.pow import (
    target_for_bits,
    meets_target,
    expected_hashes,
)
from repro.blockchain.contracts import (
    Contract,
    ContractContext,
    ContractEvent,
    ContractRegistry,
    ContractEngine,
    KeyValueContract,
)
from repro.blockchain.chain import Blockchain
from repro.blockchain.mempool import Mempool
from repro.blockchain.node import BlockchainNode

__all__ = [
    "BlockchainConfig",
    "Transaction",
    "Block",
    "BlockHeader",
    "target_for_bits",
    "meets_target",
    "expected_hashes",
    "Contract",
    "ContractContext",
    "ContractEvent",
    "ContractRegistry",
    "ContractEngine",
    "KeyValueContract",
    "Blockchain",
    "Mempool",
    "BlockchainNode",
]
