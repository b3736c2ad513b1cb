"""The monitoring rules, once, for every monitor that runs them.

DRAMS's monitor contract applies the log rules on chain and its Analyser
the decision check off chain; the centralized baseline
(:mod:`repro.baselines.central`) runs both in one process, so a detection
difference between the two monitors is the architecture's, never the
rules' (``tests/test_monitor_parity.py``).  Nothing here holds a host, a
chain or a clock: callers pass ages and times in and act on the results.

:class:`LogRules` work on one correlation record, ``{"entries": {entry
type: entry}, "alerted": {alert type: True}, "complete": bool}``.  An entry
holds ``payload_hash``, ``component``, the policy stamp it declares
(:func:`declared_stamp`) and its audit evidence under the caller's
``evidence`` key.  The rules report effects in firing order:
``(ALERT, alert type, details)``, ``(CLAIM, entry type, None)`` — a churn
claim to announce for audit — and ``(COMPLETE, None, None)``.

1. **Leg matching** — PEP-in/PDP-in and PDP-out/PEP-out hashes must agree,
   else ``request-mismatch`` / ``decision-mismatch``.
2. **Equivocation** — a second, different payload for a recorded point.
3. **The churn downgrade** — two conflicting decision reports declaring
   different policy versions, both auditable, may be honest replicas racing
   a publish: ``policy-churn`` instead.  The stamps are attacker-reachable,
   so churn is a claim, which :meth:`PolicyHistory.judge_claims` audits.
   At ``MAX_CHURN_REPORTS`` kept reports a flood is equivocation again.
4. **Completion** over all four entry types, and the **timeout**: an
   overdue record missing an entry raises ``missing-log``.

Every rule always runs.  The retired switches (two-point probes,
Analyser-only matching, a contract that kept no evidence) survive as a
spec with their last answers in ``docs/architecture.md`` §4.

:class:`PolicyHistory` holds the published policy versions, when each was
seen and one oracle per version.  A decision stamped with a known version
is re-derived under it (``incorrect-decision``), unless it trails the
version then in force by more than the staleness bound (a replica
replaying a superseded policy); an unknown stamp is a policy no publisher
made — both ``policy-violation``, the latter once the caller's grace for
its own replica lagging runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.accesscontrol.prp import PolicyVersion
from repro.analysis.semantics import DecisionOracle
from repro.common.errors import ValidationError
from repro.drams.logs import EntryType
from repro.xacml.context import RequestContext

#: Effect kinds (see the module docstring).
ALERT, CLAIM, COMPLETE = "alert", "claim", "complete"

#: ``read(entry, field)``: the payload ``entry`` carries if it is readable and
#: holds ``field``, else None — absent, undecryptable or malformed alike.
Reader = Callable[[Optional[dict], str], Optional[dict]]


def first_alert(record: dict, alert_type: str) -> bool:
    """Mark ``alert_type`` raised on ``record``; False if it already was."""
    if alert_type in record["alerted"]:
        return False
    record["alerted"][alert_type] = True
    return True


def declared_stamp(payload: dict) -> dict:
    """The policy stamp a decision payload declares to the log rules; empty if unstamped."""
    fingerprint = payload.get("policy_fingerprint", "")
    if not fingerprint:
        return {}
    return {"policy_fingerprint": fingerprint, "policy_version": payload.get("policy_version", 0)}


@dataclass(frozen=True)
class LogRules:
    """Matching, equivocation, churn, completion and timeout over one record.

    ``timeout`` is in the caller's unit of age, named by ``age_key`` in
    missing-log details; ``evidence`` is the key an entry's audit evidence
    sits under.  An entry without it is never downgraded to churn: the claim
    would be unauditable.
    """

    MAX_CHURN_REPORTS = 8

    timeout: float
    age_key: str
    evidence: str

    def repeat(self, record: dict, entry_type: str, report: dict) -> tuple[str, list]:
        """A payload for a recorded point: ``"duplicate"``, ``"policy_churn"`` or ``"equivocation"``.

        ``report`` is the newcomer plus its ``entry_type``; a churn claim is
        kept in the record's ``churn_reports`` for the audit.
        """
        existing = record["entries"][entry_type]
        if existing["payload_hash"] == report["payload_hash"]:
            return "duplicate", []
        if self._churn_pair(existing, report):
            reports = record.setdefault("churn_reports", [])
            if len(reports) >= self.MAX_CHURN_REPORTS:
                flood = {"entry_type": entry_type, "reason": "churn-report-overflow"}
                return "equivocation", [(ALERT, "equivocation", {**flood, "reports": len(reports)})]
            reports.append(report)
            churn = {
                "entry_type": entry_type,
                "first_fingerprint": existing.get("policy_fingerprint", ""),
                "second_fingerprint": report["policy_fingerprint"],
                "first_version": existing.get("policy_version", 0),
                "second_version": report["policy_version"],
                "first_reporter": existing["component"],
                "second_reporter": report["component"],
            }
            return "policy_churn", [(CLAIM, entry_type, None), (ALERT, "policy-churn", churn)]
        equivocation = {
            "entry_type": entry_type,
            "first_hash": existing["payload_hash"],
            "second_hash": report["payload_hash"],
            "first_reporter": existing["component"],
            "second_reporter": report["component"],
        }
        return "equivocation", [(ALERT, "equivocation", equivocation)]

    def add(self, record: dict, entry_type: str, entry: dict) -> list:
        """Record a first payload for a point, match both legs, check completion."""
        entries = record["entries"]
        entries[entry_type] = entry
        effects: list = []
        self._match_leg(record, EntryType.REQUEST_LEG, "request-mismatch", effects)
        self._match_leg(record, EntryType.DECISION_LEG, "decision-mismatch", effects)
        if record["complete"] or any(kind not in entries for kind in EntryType.ALL):
            return effects
        for first, second in (EntryType.REQUEST_LEG, EntryType.DECISION_LEG):
            if entries[first]["payload_hash"] != entries[second]["payload_hash"]:
                return effects
        record["complete"] = True
        return effects + [(COMPLETE, None, None)]

    def expire(self, record: dict, age: float) -> Optional[list]:
        """None while ``age`` is under the timeout, else what the timeout fires.

        A record with every entry present had a leg mismatch, whose alert
        already fired; it is marked so ``missing-log`` never follows.
        """
        if age < self.timeout:
            return None
        entries = record["entries"]
        missing = [entry_type for entry_type in EntryType.ALL if entry_type not in entries]
        if not missing:
            record["alerted"]["missing-log"] = True
            return []
        details = {"missing": missing, "present": sorted(entries), self.age_key: age}
        return [(ALERT, "missing-log", details)]

    def _match_leg(self, record: dict, leg: tuple[str, str], alert_type: str, effects: list):
        first, second = leg
        entries = record["entries"]
        if first not in entries or second not in entries:
            return
        one, other = entries[first], entries[second]
        if one["payload_hash"] == other["payload_hash"]:
            return
        # Sides declaring different policy versions: possibly the PEP
        # enforced one replica's answer and PDP-out came from another.
        churn = self._churn_pair(one, other)
        shown, field = ("fingerprint", "policy_fingerprint") if churn else ("hash", "payload_hash")
        details = {
            "leg": [first, second],
            f"{first}-{shown}": one[field],
            f"{second}-{shown}": other[field],
            f"{first}-component": one["component"],
            f"{second}-component": other["component"],
        }
        effects.append((ALERT, "policy-churn" if churn else alert_type, details))
        if not churn:
            return
        # The claim pair is announced once, even when an earlier conflict
        # consumed the record's one policy-churn alert.
        announced = record.setdefault("churn_announced", {})
        if f"{first}:{second}" not in announced:
            announced[f"{first}:{second}"] = True
            effects.append((CLAIM, second, None))

    def _churn_pair(self, first: dict, second: dict) -> bool:
        """Both sides stamped, with different declared versions, and both auditable.

        Same-version conflicts are impossible honestly (equal fingerprints
        under different versions are not: a rollback republishes a document).
        """
        if self.evidence not in first or self.evidence not in second:
            return False
        if not first.get("policy_fingerprint") or not second.get("policy_fingerprint"):
            return False
        return first.get("policy_version", 0) != second.get("policy_version", 0)


class Verdict(NamedTuple):
    """A judged decision or churn claim: the alert it earns, empty if it stands."""

    alert: str = ""
    details: dict = {}
    #: Made under a version behind the one in force, within the bound.
    trailing: bool = False


def _violation(reason: str, **details) -> Verdict:
    return Verdict("policy-violation", {"reason": reason, **details})


def _read_request(record: dict, read: Reader) -> Optional[dict]:
    entries = record["entries"]
    request = read(entries.get(EntryType.PDP_IN), "content")
    return request or read(entries.get(EntryType.PEP_IN), "content")


def _decode_request(payload: Optional[dict]) -> Optional[RequestContext]:
    """The request ``payload`` carries; None if there is none or it does not decode.

    Content that does not decode reads as not yet readable, like a payload
    without ``content``.
    """
    if payload is None:
        return None
    try:
        return RequestContext.from_dict(payload["content"])
    except ValidationError:
        return None


class PolicyHistory:
    """The policy versions a monitor has seen published, and their oracles.

    Fed through :meth:`add` (from ``prp.on_publish``); the history given at
    construction counts as always known.
    """

    def __init__(self, versions: list[PolicyVersion], staleness_bound: int) -> None:
        self.staleness_bound = staleness_bound
        self._versions: list[PolicyVersion] = []
        self._fingerprints: dict[str, PolicyVersion] = {}
        self._seen_at: dict[int, float] = {}
        self._oracles: dict[int, DecisionOracle] = {}
        for version in versions:
            self.add(version, 0.0)

    def add(self, version: PolicyVersion, seen_at: float) -> None:
        self._versions.append(version)
        self._fingerprints[version.fingerprint] = version
        self._seen_at[version.version] = seen_at

    def _expected(self, version: PolicyVersion, request: RequestContext) -> str:
        # One oracle per version: it compiles the document through the
        # target index once, so each check is an indexed evaluation.
        oracle = self._oracles.get(version.version)
        if oracle is None:
            oracle = self._oracles[version.version] = DecisionOracle(version.document)
        return oracle.expected_decision(request)

    def judge_decision(
        self, record: dict, read: Reader, now: float, grace_left: Callable[[], bool]
    ) -> Optional[Verdict]:
        """Judge ``record``'s decision; None while it cannot be judged yet.

        That is while PDP-out or the request (PDP-in, else PEP-in) is
        unreadable or does not decode, or while its stamp is unknown and
        ``grace_left()``.
        """
        entry = record["entries"].get(EntryType.PDP_OUT)
        decision = read(entry, "decision")
        payload = _read_request(record, read)
        # Decoded only once the decision reads too: one decode per judgement.
        request = _decode_request(payload) if decision is not None else None
        if request is None:
            return None
        stamped = decision.get("policy_fingerprint", "")
        if stamped and stamped not in self._fingerprints:
            if grace_left():
                return None
            claimed = decision.get("policy_version", 0)
            return _violation(
                "unknown-policy-fingerprint", claimed_fingerprint=stamped, claimed_version=claimed
            )
        if not self._versions:
            return Verdict()
        version = self._versions[-1]  # an unstamped decision answers to the head
        trailing = False
        if stamped:
            version = self._fingerprints[stamped]
            decided_at = entry.get("observed_at", now)
            in_force = self._versions[-1]
            for seen in self._versions:
                if self._seen_at[seen.version] <= decided_at:
                    in_force = seen
            skew = in_force.version - version.version
            if skew > self.staleness_bound:
                return _violation(
                    "staleness-bound-exceeded",
                    stamped_version=version.version,
                    in_force_version=in_force.version,
                    skew=skew,
                    bound=self.staleness_bound,
                )
            trailing = skew > 0
        expected = self._expected(version, request)
        if expected == decision["decision"]:
            return Verdict(trailing=trailing)
        details = {
            "expected": expected,
            "observed": decision["decision"],
            "policy_version": version.version,
        }
        return Verdict("incorrect-decision", details, trailing=trailing)

    def judge_claims(
        self, record: dict, read: Reader, grace_left: Callable[[], bool]
    ) -> Optional[Verdict]:
        """Judge every churn claim on ``record``: the first to fail, or a verdict that stands.

        A claim is a stamped PDP-out / PEP-out entry or a kept churn report.
        It must read back with the stamp it declared, name a known version
        and carry exactly that version's decision.  None while the request
        is unreadable or an unknown stamp is within the grace.
        """
        request = _decode_request(_read_request(record, read))
        if request is None:
            return None
        entries = record["entries"]
        claims = [(kind, entries.get(kind)) for kind in (EntryType.PDP_OUT, EntryType.PEP_OUT)]
        claims += [(report["entry_type"], report) for report in record.get("churn_reports", [])]
        waiting = False
        for entry_type, claim in claims:
            declared = claim.get("policy_fingerprint") if claim is not None else None
            if not declared:
                continue
            payload = read(claim, "decision")
            if payload is None or payload.get("policy_fingerprint") != declared:
                return _violation(
                    "churn-claim-unverifiable", entry_type=entry_type, claimed_fingerprint=declared
                )
            version = self._fingerprints.get(declared)
            if version is None:
                if grace_left():
                    waiting = True
                    continue
                return _violation(
                    "churn-claims-unknown-fingerprint",
                    entry_type=entry_type,
                    claimed_fingerprint=declared,
                    claimed_version=payload.get("policy_version", 0),
                )
            expected = self._expected(version, request)
            if expected != payload["decision"]:
                return _violation(
                    "churn-claim-refuted",
                    entry_type=entry_type,
                    expected=expected,
                    observed=payload["decision"],
                    policy_version=version.version,
                )
        return None if waiting else Verdict()
