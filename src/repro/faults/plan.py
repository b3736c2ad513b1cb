"""The FaultPlan DSL: declarative, scripted failure timelines.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records, each
naming a fault *kind*, the simulated time it strikes (``at``), an optional
auto-reversal time (``until`` — heal, clear, restart), and the hosts it
touches.  Plans are pure data: they validate at construction, round-trip
through ``to_dict``/``from_dict`` (so docs can carry runnable examples and
``tools/check_fault_plan.py`` can lint them), and say nothing about *how* a
fault is applied — that is the :class:`~repro.faults.chaos.ChaosController`'s
job, which also resolves ``fnmatch``-style target patterns (``"pdp-*@*"``)
against the live topology at fire time.

Kinds:

``partition``
    Sever traffic between ``group_a`` and ``group_b`` (both directions by
    default; ``symmetric=False`` blocks only a→b).  ``until`` heals it.
``link_degrade``
    Install per-link loss/duplication/reordering/latency on every
    (a, b) pair across the two groups.  ``until`` clears it.
``latency_spike``
    Sugar for a pure added-latency degradation.
``crash``
    Kill the target hosts.  The controller maps each address to its
    component semantics: a PDP shard loses in-flight evaluations (never
    the plane's shared cache), a PRP replica its staging buffer, a chain
    node its liveness (mempool journalled).  ``until`` schedules the restart.
``restart``
    Bring previously crashed targets back (for plans that split crash and
    restart into separate entries).
``clock_skew``
    Set the targets' local clock offset to ``skew`` seconds; ``until``
    resets it.  Only observation timestamps skew (probe ``observed_at``),
    never simulator ordering.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

from repro.common.errors import ValidationError

FAULT_KINDS = (
    "partition",
    "link_degrade",
    "latency_spike",
    "crash",
    "restart",
    "clock_skew",
)

_GROUP_KINDS = ("partition", "link_degrade", "latency_spike")
_TARGET_KINDS = ("crash", "restart", "clock_skew")
_NUMBER_FIELDS = ("at", "until", "loss", "duplicate", "reorder", "extra_latency", "skew")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.  Prefer the module-level constructors."""

    kind: str
    at: float
    until: Optional[float] = None
    targets: tuple[str, ...] = ()
    group_a: tuple[str, ...] = ()
    group_b: tuple[str, ...] = ()
    symmetric: bool = True
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    extra_latency: float = 0.0
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValidationError(f"fault time must be >= 0, got at={self.at}")
        if self.until is not None and self.until <= self.at:
            raise ValidationError(
                f"fault reversal must come after onset: at={self.at}, until={self.until}")
        if self.kind in _GROUP_KINDS:
            if not self.group_a or not self.group_b:
                raise ValidationError(
                    f"{self.kind} needs non-empty group_a and group_b")
            if self.targets:
                raise ValidationError(f"{self.kind} takes groups, not targets")
        if self.kind in _TARGET_KINDS:
            if not self.targets:
                raise ValidationError(f"{self.kind} needs at least one target")
            if self.group_a or self.group_b:
                raise ValidationError(f"{self.kind} takes targets, not groups")
        if not 0.0 <= self.loss <= 1.0:
            raise ValidationError(f"loss must be in [0,1], got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValidationError(f"duplicate must be in [0,1], got {self.duplicate}")
        if self.reorder < 0 or self.extra_latency < 0:
            raise ValidationError("reorder/extra_latency must be >= 0")
        if self.kind == "link_degrade" and not any(
            (self.loss, self.duplicate, self.reorder, self.extra_latency)
        ):
            raise ValidationError(
                "link_degrade needs at least one of loss/duplicate/reorder/extra_latency")
        if self.kind == "latency_spike" and self.extra_latency <= 0:
            raise ValidationError("latency_spike needs extra_latency > 0")
        if self.kind == "clock_skew" and self.skew == 0.0:
            raise ValidationError("clock_skew needs a non-zero skew")

    def to_dict(self) -> dict:
        """Minimal JSON-ready form: defaults are omitted."""
        defaults = FaultEvent.__dataclass_fields__
        out: dict = {}
        for key, value in asdict(self).items():
            if key in ("kind", "at"):
                out[key] = value
                continue
            default = defaults[key].default
            if isinstance(value, tuple):
                if value:
                    out[key] = list(value)
            elif value != default:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        if not isinstance(data, dict):
            raise ValidationError(f"fault event must be an object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown fault event field(s): {sorted(unknown)} (known: {sorted(known)})")
        if "kind" not in data or "at" not in data:
            raise ValidationError("fault event needs 'kind' and 'at'")
        for key in _NUMBER_FIELDS:
            value = data.get(key, 0.0)
            finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
            if not (finite or key == "until" and value is None):
                raise ValidationError(f"{key} must be a finite number, got {value!r:.40}")
        if not isinstance(data.get("symmetric", True), bool):
            raise ValidationError("symmetric must be true or false")
        coerced = dict(data)
        for key in ("targets", "group_a", "group_b"):
            if key in coerced:
                value = coerced[key]
                if isinstance(value, str) or not isinstance(value, Sequence):
                    raise ValidationError(f"{key} must be a list of addresses/patterns")
                coerced[key] = tuple(str(item) for item in value)
        return cls(**coerced)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated failure timeline."""

    events: tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ValidationError(
                    f"FaultPlan events must be FaultEvent, got {type(event).__name__}")

    def __len__(self) -> int:
        return len(self.events)

    def duration(self) -> float:
        """Last scripted instant (onset or reversal) in the plan."""
        times = [e.at for e in self.events] + [
            e.until for e in self.events if e.until is not None
        ]
        return max(times) if times else 0.0

    def shifted(self, offset: float) -> "FaultPlan":
        """The same plan translated ``offset`` seconds later."""
        return FaultPlan(
            events=tuple(
                replace(
                    event,
                    at=event.at + offset,
                    until=None if event.until is None else event.until + offset,
                )
                for event in self.events
            ),
            name=self.name,
        )

    def to_dict(self) -> dict:
        out: dict = {"events": [event.to_dict() for event in self.events]}
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValidationError(f"fault plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"events", "name"}
        if unknown:
            raise ValidationError(f"unknown fault plan field(s): {sorted(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValidationError("fault plan 'events' must be a list")
        return cls(
            events=tuple(FaultEvent.from_dict(event) for event in events),
            name=str(data.get("name", "")),
        )


# -- constructors (the DSL surface) -----------------------------------------------


def partition(group_a: Sequence[str], group_b: Sequence[str], at: float,
              heal_at: Optional[float] = None, symmetric: bool = True) -> FaultEvent:
    """Sever the two groups at ``at``; ``heal_at`` restores the link."""
    return FaultEvent(kind="partition", at=at, until=heal_at,
                      group_a=tuple(group_a), group_b=tuple(group_b),
                      symmetric=symmetric)


def link_degrade(group_a: Sequence[str], group_b: Sequence[str], at: float,
                 until: Optional[float] = None, loss: float = 0.0,
                 duplicate: float = 0.0, reorder: float = 0.0,
                 extra_latency: float = 0.0, symmetric: bool = True) -> FaultEvent:
    """Lossy/duplicating/reordering delivery on every a→b link."""
    return FaultEvent(kind="link_degrade", at=at, until=until,
                      group_a=tuple(group_a), group_b=tuple(group_b),
                      symmetric=symmetric, loss=loss, duplicate=duplicate,
                      reorder=reorder, extra_latency=extra_latency)


def latency_spike(group_a: Sequence[str], group_b: Sequence[str], at: float,
                  extra_latency: float, until: Optional[float] = None,
                  symmetric: bool = True) -> FaultEvent:
    """Add a flat latency penalty on every a→b link."""
    return FaultEvent(kind="latency_spike", at=at, until=until,
                      group_a=tuple(group_a), group_b=tuple(group_b),
                      symmetric=symmetric, extra_latency=extra_latency)


def crash(target: str, at: float, restart_at: Optional[float] = None) -> FaultEvent:
    """Kill ``target`` (address or pattern) at ``at``; optionally restart."""
    return FaultEvent(kind="crash", at=at, until=restart_at, targets=(target,))


def restart(target: str, at: float) -> FaultEvent:
    """Bring a previously crashed ``target`` back at ``at``."""
    return FaultEvent(kind="restart", at=at, targets=(target,))


def clock_skew(target: str, skew: float, at: float,
               until: Optional[float] = None) -> FaultEvent:
    """Skew ``target``'s local clock by ``skew`` seconds from ``at``."""
    return FaultEvent(kind="clock_skew", at=at, until=until,
                      targets=(target,), skew=skew)


__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "partition",
    "link_degrade",
    "latency_spike",
    "crash",
    "restart",
    "clock_skew",
]
