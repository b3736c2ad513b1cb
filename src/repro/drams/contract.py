"""The DRAMS monitor smart contract.

Runs replicated on every federation blockchain node.  It stores, per
correlation id, the hash commitments (and ciphertexts, for the Analyser's
audit) of the four monitoring points and applies the paper's "expressly
devised algorithms" as entries arrive: the shared log rules of
:mod:`repro.drams.rules` — leg matching, equivocation, the churn downgrade
(announced per claim for the Analyser to audit; an entry logged without its
ciphertext is never downgraded, as its claim would be unauditable) and, on
``tick``, the timeout after ``timeout_blocks``.  The Analyser's verdicts
arrive through ``report_violation``, so semantic violations end up on chain
too.  Alerts are contract *events*: they replicate with the chain, reach
every Logging Interface and cannot be suppressed by any single tenant.

Arguments are decoded once, at :meth:`MonitorContract.invoke`: a call whose
arguments are not of the declared shape raises :class:`ContractError`
before touching state, so one signed malformed call costs a failed receipt,
never the chain.

``tick`` walks two indices instead of every record: ``pending``
(correlations neither complete nor flagged) for the timeout, and
``retained`` (completed ones, in completion order, so the expired prefix
pops off the front) for retention pruning.
"""

from __future__ import annotations

import math
from typing import Any

from repro.blockchain.contracts import Contract, ContractContext, ContractError
from repro.drams.alerts import AlertType
from repro.drams.logs import EntryType
from repro.drams.rules import ALERT, CLAIM, LogRules, first_alert

CONTRACT_NAME = "drams-monitor"

#: Event names emitted by the contract.
EVENT_ALERT = "Alert"
EVENT_VERIFIED = "AccessVerified"
EVENT_LOG_RECORDED = "LogRecorded"
#: One per churn-classified conflicting claim — deliberately NOT deduped
#: (unlike the ``policy-churn`` alert), so the Analyser audits every
#: claim, including ones arriving after the first alert already fired.
EVENT_CHURN_REPORT = "PolicyChurnReported"


def _finite(value: Any) -> bool:
    """A number a float holds finitely, as probe timestamps are."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


#: method -> argument -> (required, shape): an exact type (a bool is no int),
#: the allowed string values, or a check.  Unlisted arguments are ignored.
_SIGNATURES: dict[str, dict[str, tuple[bool, Any]]] = {
    "record_log": {
        "correlation_id": (True, str),
        "entry_type": (True, EntryType.ALL),
        "payload_hash": (True, str),
        "tenant": (True, str),
        "component": (True, str),
        "policy_fingerprint": (False, str),
        "policy_version": (False, int),
        "observed_at": (False, _finite),
        "ciphertext": (False, dict),
    },
    "tick": {},
    "report_violation": {
        "correlation_id": (True, str),
        "kind": (True, tuple(alert_type.value for alert_type in AlertType)),
        "details": (False, dict),
    },
}


def _fits(value: Any, shape: Any) -> bool:
    if isinstance(shape, type):
        return type(value) is shape
    if isinstance(shape, tuple):
        return type(value) is str and value in shape
    return shape(value)


class MonitorContract(Contract):
    """Replicated log store running the shared log rules."""

    name = CONTRACT_NAME
    # Every call is decoded at ``invoke`` and raises before touching state,
    # so the engine may run invocations in place (fast path).
    checked_invoke = True

    MAX_CHURN_REPORTS = LogRules.MAX_CHURN_REPORTS

    def __init__(self, timeout_blocks: int = 6, retention_blocks: int = 50) -> None:
        if timeout_blocks < 1:
            raise ContractError("timeout_blocks must be >= 1")
        self.timeout_blocks = timeout_blocks
        self.retention_blocks = retention_blocks
        self.rules = LogRules(timeout_blocks, "age_blocks", "ciphertext")

    def initial_state(self) -> dict[str, Any]:
        return {
            "records": {},
            # Sweep indices (see module docstring): correlation id → True,
            # and correlation id → completed height.
            "pending": {},
            "retained": {},
            "stats": {"logs": 0, "alerts": 0, "verified": 0, "pruned": 0},
        }

    def invoke(self, state: dict, method: str, args: dict, ctx: ContractContext, emit) -> Any:
        signature = _SIGNATURES.get(method)
        if signature is None:
            raise ContractError(f"unknown method: {method!r}")
        if not isinstance(args, dict):
            raise ContractError(f"{method} arguments must be a mapping")
        for name, (required, shape) in signature.items():
            if name not in args:
                if required:
                    raise ContractError(f"{method} missing argument: {name!r}")
            elif type(args[name]) is not shape and not _fits(args[name], shape):
                raise ContractError(f"{method} argument {name!r} is malformed")
        if method == "tick":
            return self._tick(state, ctx, emit)
        handler = self._record_log if method == "record_log" else self._report_violation
        return handler(state, args, ctx, emit)

    @staticmethod
    def _ensure_record(state: dict, corr_id: str, ctx: ContractContext) -> dict:
        """Fetch-or-create the correlation record, indexing new ones."""
        record = state["records"].get(corr_id)
        if record is None:
            record = state["records"][corr_id] = {
                "first_height": ctx.block_height,
                "entries": {},
                "alerted": {},
                "complete": False,
            }
            state["pending"][corr_id] = True
        return record

    def _fire(self, state: dict, record: dict, emit, ctx, corr_id: str, effects: list) -> None:
        """Emit what the log rules fired, in their order; an alert once per record and type."""
        height = ctx.block_height
        for kind, name, details in effects:
            if kind == CLAIM:
                emit(EVENT_CHURN_REPORT, {"correlation_id": corr_id, "entry_type": name})
            elif kind == ALERT:
                if first_alert(record, name):
                    state["stats"]["alerts"] += 1
                    alert = {"alert_type": name, "correlation_id": corr_id, "details": details}
                    emit(EVENT_ALERT, {**alert, "height": height})
            else:  # complete: completion order follows height, so ``retained`` stays sorted
                record["completed_height"] = height
                state["pending"].pop(corr_id, None)
                state["retained"][corr_id] = height
                state["stats"]["verified"] += 1
                emit(EVENT_VERIFIED, {"correlation_id": corr_id, "height": height})

    def _record_log(self, state: dict, args: dict, ctx: ContractContext, emit) -> dict:
        corr_id, entry_type = args["correlation_id"], args["entry_type"]
        payload_hash, tenant, component = args["payload_hash"], args["tenant"], args["component"]
        record = self._ensure_record(state, corr_id, ctx)
        existing = record["entries"].get(entry_type)
        incoming_fp = args.get("policy_fingerprint", "")
        if existing is not None:
            report = {
                "entry_type": entry_type,
                "payload_hash": payload_hash,
                "component": component,
                "policy_fingerprint": incoming_fp,
                "policy_version": args.get("policy_version", 0),
                "height": ctx.block_height,
            }
            if "ciphertext" in args:
                report["ciphertext"] = args["ciphertext"]
            outcome, effects = self.rules.repeat(record, entry_type, report)
            self._fire(state, record, emit, ctx, corr_id, effects)
            return {"ok": True, outcome: True}
        entry = {
            "payload_hash": payload_hash,
            "tenant": tenant,
            "component": component,
            "height": ctx.block_height,
            # The carrying transaction, so proof services can answer "prove
            # my (correlation, entry-type) is on-chain" without a chain scan.
            "tx_id": ctx.tx_id,
        }
        if "observed_at" in args:
            entry["observed_at"] = args["observed_at"]
        if incoming_fp:
            entry["policy_fingerprint"] = incoming_fp
            entry["policy_version"] = args.get("policy_version", 0)
        if "ciphertext" in args:
            entry["ciphertext"] = args["ciphertext"]
        effects = self.rules.add(record, entry_type, entry)
        state["stats"]["logs"] += 1
        logged = {"correlation_id": corr_id, "entry_type": entry_type, "tenant": tenant}
        emit(EVENT_LOG_RECORDED, logged)
        self._fire(state, record, emit, ctx, corr_id, effects)
        return {"ok": True}

    def _tick(self, state: dict, ctx: ContractContext, emit) -> dict:
        flagged = pruned = 0
        height = ctx.block_height
        pending = state["pending"]
        scanned = len(pending)
        for corr_id in list(pending):
            record = state["records"][corr_id]
            effects = self.rules.expire(record, height - record["first_height"])
            if effects is not None:
                self._fire(state, record, emit, ctx, corr_id, effects)
                flagged += len(effects)
                pending.pop(corr_id, None)
        if self.retention_blocks > 0:
            retained = state["retained"]
            for corr_id, completed in list(retained.items()):
                if height - completed <= self.retention_blocks:
                    break  # completion order: the rest is younger still
                del state["records"][corr_id]
                del retained[corr_id]
                pruned += 1
        state["stats"]["pruned"] += pruned
        return {"ok": True, "flagged": flagged, "pruned": pruned, "scanned": scanned}

    def _report_violation(self, state: dict, args: dict, ctx: ContractContext, emit) -> dict:
        corr_id = args["correlation_id"]
        details = dict(args.get("details", {}))
        record = self._ensure_record(state, corr_id, ctx)
        details.setdefault("reported_by", ctx.sender)
        self._fire(state, record, emit, ctx, corr_id, [(ALERT, args["kind"], details)])
        return {"ok": True}
