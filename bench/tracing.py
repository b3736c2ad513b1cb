"""The benchmark's own span recorder: wraps public callables from outside.

Tracing is off in every timed run.  The traced pass installs one wrapper
per entry of :data:`SPAN_TARGETS` before the stack is built: class
attributes are replaced on the class, module-level functions are rebound
in every already-imported ``repro.*`` module whose global *is* the
original object (``from … import canonical_json`` binds early).  A target
that does not resolve is a hard error, so a rename in the program cannot
silently empty a row of the layer table.

Spans (name, start, end, parent taken from a stack) stay in memory, in
flat arrays, and are aggregated once at exit: a span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

#: Root span opened by the child around each timed region.
ROOT_SPAN = "stack.run"

#: ``(span name, module, attribute path)``; a trailing ``()`` marks a
#: generator function whose every ``next()`` is one span.  The span's
#: prefix up to the first dot is the layer (the program's module name).
SPAN_TARGETS = (
    ("crypto.verify", "repro.crypto.signatures", "VerifyingKey.verify"),
    ("crypto.sign", "repro.crypto.signatures", "SigningKey.sign"),
    ("crypto.merkle_root", "repro.crypto.merkle", "MerkleTree.root_of"),
    ("crypto.encrypt", "repro.crypto.symmetric", "SymmetricKey.encrypt"),
    ("crypto.decrypt", "repro.crypto.symmetric", "SymmetricKey.decrypt"),
    ("serialization.canonical_json", "repro.common.serialization", "canonical_json"),
    ("simnet.send", "repro.simnet.network", "Network.send"),
    ("simnet.size_bytes", "repro.simnet.network", "Message.size_bytes"),
    ("blockchain.node_receive", "repro.blockchain.node", "BlockchainNode.receive"),
    ("blockchain.submit_tx", "repro.blockchain.node", "BlockchainNode.submit_transaction"),
    ("blockchain.validate_tx", "repro.blockchain.chain", "Blockchain.validate_transaction"),
    ("blockchain.add_block", "repro.blockchain.chain", "Blockchain.add_block"),
    ("blockchain.create_block", "repro.blockchain.chain", "Blockchain.create_block"),
    ("blockchain.contract_execute", "repro.blockchain.contracts", "ContractEngine.execute"),
    ("blockchain.mempool_add", "repro.blockchain.mempool", "Mempool.add"),
    ("blockchain.tx_from_dict", "repro.blockchain.transaction", "Transaction.from_dict"),
    ("blockchain.block_from_dict", "repro.blockchain.block", "Block.from_dict"),
    ("drams.probe_observe", "repro.drams.probe", "ProbeAgent.observe"),
    ("drams.li_store_entry", "repro.drams.logging_interface", "LoggingInterface.store_entry"),
    ("drams.contract_invoke", "repro.drams.contract", "MonitorContract.invoke"),
    ("drams.analyser_sweep", "repro.drams.analyser", "Analyser.sweep"),
    ("analysis.oracle", "repro.analysis.semantics", "DecisionOracle.expected_decision"),
    ("xacml.evaluate", "repro.xacml.pdp", "PolicyDecisionPoint.evaluate"),
    ("accesscontrol.pep_request", "repro.accesscontrol.pep",
     "PolicyEnforcementPoint.request_access"),
    ("accesscontrol.pep_receive", "repro.accesscontrol.pep", "PolicyEnforcementPoint.receive"),
    ("accesscontrol.pdp_receive", "repro.accesscontrol.pdp_service", "PdpService.receive"),
    ("workload.next_request", "repro.workload.generator", "RequestGenerator.requests()"),
    ("policydist.apply_record", "repro.policydist.replica", "PrpReplica.apply_record"),
    ("lightclient.receipt_verify", "repro.lightclient.receipts", "DecisionReceipt.verify"),
    ("lightclient.consumer_receive", "repro.lightclient.consumer", "LightProbeConsumer.receive"),
)

SPAN_NAMES = tuple(name for name, _module, _path in SPAN_TARGETS)


class TargetError(RuntimeError):
    """A wrap target no longer resolves: the program renamed or moved it."""


class SpanRecorder:
    """Flat in-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Off while the benchmark does its own verification, so its
        #: oracle re-check is not charged to the program.
        self.enabled = True
        #: Exact counters the wrappers observe on the way through.
        self.json_chars = 0
        self.mempool_peak = 0

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(self._name_id(name))
        try:
            yield
        finally:
            self.exit(index)

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, function, after=None):
        """``function`` with a span around every call.

        ``after(result, *args)`` runs outside the span, for the exact
        counters that need the call's result.
        """
        name_id = self._name_id(name)
        enter, leave = self.enter, self.exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = enter(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                leave(index)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def wrap_generator(self, name: str, function):
        """A generator function whose every ``next()`` is one span."""
        name_id = self._name_id(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                index = self.enter(name_id) if self.enabled else -1
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if index >= 0:
                        self.exit(index)
                yield item

        return traced

    # -- aggregation -------------------------------------------------------------

    def aggregate(self) -> dict:
        """``{span name: {"calls", "total_s", "self_s", "callers"}}``.

        ``callers`` splits ``total_s`` by the name of the enclosing span,
        which is how "most of ``canonical_json`` sits under
        ``simnet.size_bytes``" is read off a run.
        """
        rows = [{"calls": 0, "total_s": 0.0, "self_s": 0.0, "callers": {}}
                for _name in self.names]
        for index in range(len(self.start)):
            duration = self.end[index] - self.start[index]
            row = rows[self.name_of[index]]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration
            parent = self.parent_of[index]
            if parent >= 0:
                rows[self.name_of[parent]]["self_s"] -= duration
                caller = self.names[self.name_of[parent]]
                row["callers"][caller] = row["callers"].get(caller, 0.0) + duration
        return dict(zip(self.names, rows))

    def __len__(self) -> int:
        return len(self.start)


# -- installation ---------------------------------------------------------------


def resolve(module_name: str, path: str):
    """``(owner, attribute name, raw attribute)`` of one wrap target.

    The attribute must be defined on the owner itself (a class's own
    ``__dict__``, a module's globals): an inherited or re-exported name
    would wrap something other than what the table says.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetError(f"span target module {module_name} is gone: {exc}") from exc
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = vars(owner).get(parent)
        if owner is None:
            raise TargetError(f"span target {module_name}:{path} does not resolve")
    raw = vars(owner).get(attribute)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        raise TargetError(f"span target {module_name}:{path} does not resolve")
    return owner, attribute, raw


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`SPAN_TARGETS` entry; raises :class:`TargetError`."""
    def count_json(result, *_args) -> None:
        recorder.json_chars += len(result)

    def watch_mempool(_result, mempool, *_args) -> None:
        recorder.mempool_peak = max(recorder.mempool_peak, len(mempool))

    after = {"serialization.canonical_json": count_json,
             "blockchain.mempool_add": watch_mempool}
    for name, module_name, path in SPAN_TARGETS:
        is_generator = path.endswith("()")
        owner, attribute, raw = resolve(module_name, path.removesuffix("()"))
        function = getattr(raw, "__func__", raw)
        if is_generator:
            traced = recorder.wrap_generator(name, function)
        else:
            traced = recorder.wrap(name, function, after.get(name))
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(traced)
        if isinstance(owner, type):
            setattr(owner, attribute, traced)
            continue
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, traced)
