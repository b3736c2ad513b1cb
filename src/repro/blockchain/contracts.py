"""Deterministic smart-contract engine.

Contracts are deterministic state machines replicated on every node: the
same chain prefix must yield the same contract state and the same emitted
events everywhere, because DRAMS alert events are consumed wherever a
Logging Interface is attached.

A contract is a Python class exposing ``invoke(state, method, args, ctx)``.
Determinism rules (enforced by convention and by the differential tests):

- state is plain serializable data (dicts/lists/strings/ints),
- no wall-clock, randomness or I/O — only ``ctx`` (block height/timestamp,
  sender, tx id) may inject environment data,
- events are the only output channel besides the return value.

The engine charges simple *gas* per invocation (a size-proportional cost),
giving experiments a handle on contract-execution cost without a full VM.
"""

from __future__ import annotations

import copy
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.common.errors import ValidationError
from repro.common.serialization import canonical_bytes


@dataclass(frozen=True)
class ContractContext:
    """Environment visible to a contract invocation."""

    block_height: int
    block_timestamp: float
    sender: str
    tx_id: str


@dataclass(frozen=True)
class ContractEvent:
    """An event emitted during block application (e.g. a DRAMS alert)."""

    contract: str
    name: str
    payload: dict[str, Any]
    block_height: int
    tx_id: str


class ContractError(ValidationError):
    """Raised by contract code to revert an invocation."""


class Contract(ABC):
    """Base class for contract implementations."""

    #: Stable name under which the contract is deployed.
    name: str = ""

    #: Declares that ``invoke`` validates its inputs and raises
    #: :class:`ContractError` *before* mutating any state, so the engine
    #: executes it directly on the live state (no per-call deep copy)
    #: without losing revert-on-error semantics.  Leave False for
    #: contracts that can fail mid-mutation.
    checked_invoke: bool = False

    @abstractmethod
    def initial_state(self) -> dict[str, Any]:
        """Fresh state at deployment (genesis)."""

    @abstractmethod
    def invoke(
        self,
        state: dict[str, Any],
        method: str,
        args: dict[str, Any],
        ctx: ContractContext,
        emit: Callable[[str, dict[str, Any]], None],
    ) -> Any:
        """Execute ``method``; mutate ``state`` in place; emit events via ``emit``.

        Raise :class:`ContractError` to revert (state changes of the failed
        invocation are discarded by the engine).
        """


class KeyValueContract(Contract):
    """Minimal contract used by tests and examples: a guarded KV store."""

    name = "kvstore"
    checked_invoke = True

    def initial_state(self) -> dict[str, Any]:
        return {"data": {}, "writes": 0}

    def invoke(self, state, method, args, ctx, emit):
        if method == "put":
            key, value = args.get("key"), args.get("value")
            if not isinstance(key, str):
                raise ContractError("put requires a string 'key'")
            state["data"][key] = value
            state["writes"] += 1
            emit("Put", {"key": key, "by": ctx.sender})
            return {"ok": True}
        if method == "get":
            return {"value": state["data"].get(args.get("key"))}
        if method == "delete":
            key = args.get("key")
            if key not in state["data"]:
                raise ContractError(f"no such key: {key!r}")
            del state["data"][key]
            emit("Deleted", {"key": key, "by": ctx.sender})
            return {"ok": True}
        raise ContractError(f"unknown method: {method!r}")


class ContractRegistry:
    """The contract *code* deployed on a chain (identical on every node)."""

    def __init__(self) -> None:
        self._contracts: dict[str, Contract] = {}
        # Block hash → chain-state checkpoint, shared by the replicas built
        # over this registry and held weakly (see ``Blockchain._take_snapshot``).
        self.checkpoints: weakref.WeakValueDictionary[str, Any] = weakref.WeakValueDictionary()

    def deploy(self, contract: Contract) -> None:
        if not contract.name:
            raise ValidationError("contract must define a non-empty name")
        if contract.name in self._contracts:
            raise ValidationError(f"contract already deployed: {contract.name}")
        if self.checkpoints:
            raise ValidationError("deploy every contract before building a chain over it")
        self._contracts[contract.name] = contract

    def get(self, name: str) -> Contract:
        try:
            return self._contracts[name]
        except KeyError:
            raise ValidationError(f"no contract deployed under {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._contracts)


_SHARED_LEAVES = (str, int, float, bool, type(None))


def _tree_copy(value: Any) -> Any:
    """``copy.deepcopy`` of plain-data state, without its memo: dicts and
    lists copied, immutable leaves shared, anything else deep-copied."""
    kind = type(value)
    if kind is dict:
        return {key: _tree_copy(item) for key, item in value.items()}
    if kind is list:
        return [_tree_copy(item) for item in value]
    if kind in _SHARED_LEAVES:
        return value
    return copy.deepcopy(value)


@dataclass
class ExecutionReceipt:
    """Outcome of one transaction's contract invocation."""

    tx_id: str
    ok: bool
    result: Any = None
    error: str = ""
    gas_used: int = 0
    events: list[ContractEvent] = field(default_factory=list)


class ContractEngine:
    """Per-node executor holding the replicated contract state."""

    GAS_BASE = 100
    GAS_PER_BYTE = 1

    def __init__(self, registry: ContractRegistry) -> None:
        self.registry = registry
        self._state: dict[str, dict[str, Any]] = {
            name: registry.get(name).initial_state() for name in registry.names()
        }
        self.gas_used_total = 0

    def dump_state(self) -> dict[str, dict[str, Any]]:
        """Deep copy of all contract state (chain checkpoints)."""
        return _tree_copy(self._state)

    def load_state(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Restore a copy of a snapshot produced by :meth:`dump_state`."""
        self._state = _tree_copy(snapshot)

    def state_of(self, contract_name: str) -> dict[str, Any]:
        """Read-only view of a contract's current state."""
        try:
            return self._state[contract_name]
        except KeyError:
            raise ValidationError(f"no state for contract {contract_name!r}") from None

    def execute(
        self,
        contract_name: str,
        method: str,
        args: dict[str, Any],
        ctx: ContractContext,
        args_size: Optional[int] = None,
    ) -> ExecutionReceipt:
        """Run one invocation transactionally (state reverts on error).

        By default the invocation runs on a deep copy of the contract's
        state, which replaces the live state only on success.  A contract
        declaring ``checked_invoke`` runs directly on live state instead —
        safe because such contracts raise before mutating, so a failed
        invocation has by construction changed nothing.  Receipts and
        events are identical either way.  Gas is charged on ``args_size``,
        the canonical length of ``args``, encoded here if the caller has not.
        """
        contract = self.registry.get(contract_name)
        state = self._state[contract_name]
        in_place = contract.checked_invoke
        scratch = state if in_place else _tree_copy(state)
        events: list[ContractEvent] = []

        def emit(name: str, payload: dict[str, Any]) -> None:
            events.append(
                ContractEvent(
                    contract=contract_name,
                    name=name,
                    payload=payload,
                    block_height=ctx.block_height,
                    tx_id=ctx.tx_id,
                )
            )

        if args_size is None:
            args_size = len(canonical_bytes(args))
        gas = self.GAS_BASE + self.GAS_PER_BYTE * args_size
        try:
            result = contract.invoke(scratch, method, args, ctx, emit)
        except ContractError as exc:
            self.gas_used_total += gas
            return ExecutionReceipt(tx_id=ctx.tx_id, ok=False, error=str(exc), gas_used=gas)
        if not in_place:
            self._state[contract_name] = scratch
        self.gas_used_total += gas
        return ExecutionReceipt(tx_id=ctx.tx_id, ok=True, result=result, gas_used=gas, events=events)
