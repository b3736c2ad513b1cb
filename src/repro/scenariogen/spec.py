"""The scenario DSL: frozen dataclasses describing a federation.

A :class:`ScenarioSpec` is pure data — JSON-serialisable, hashable,
hypothesis-generatable — and everything stochastic about realising it is
deferred to :func:`repro.scenariogen.generate.generate_scenario`, which
derives all randomness from ``SeededRng(seed, "scenariogen/<name>")``.

Two ways to describe the policy tree:

- **explicit**: a tuple of :class:`ServiceClassSpec`, one per resource
  type, each with its :class:`RuleSpec` list — how the ten presets in
  :mod:`repro.scenariogen.presets` state the shipped federations;
- **synthesised**: a :class:`TreeSpec` recipe (class count, nesting
  depth/width, condition mix) expanded into explicit classes by the
  generator — how the property suite samples random federations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.common.errors import ValidationError

#: Named rule conditions the compiler knows how to build.  ``""`` means no
#: extra condition beyond the action gate.
RULE_CONDITIONS = ("", "home-tenant", "clearance", "office-hours")


@dataclass(frozen=True)
class RuleSpec:
    """One rule of a service-class policy.

    ``roles`` gates the rule's target; ``role_match="any"`` is the usual
    disjunction (subject holds any listed role), ``"all"`` the rarely
    wanted conjunction (the healthcare preset's ``clinicians-read`` rule
    is one, and matches nobody with single-valued roles).
    ``actions`` restricts the rule to the listed actions (empty = any);
    ``condition`` names one extra predicate from :data:`RULE_CONDITIONS`.
    """

    effect: str = "Permit"
    roles: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()
    condition: str = ""
    role_match: str = "any"
    rule_id: str = ""

    def __post_init__(self) -> None:
        if self.effect not in ("Permit", "Deny"):
            raise ValidationError(f"effect must be Permit or Deny, got {self.effect!r}")
        if self.condition not in RULE_CONDITIONS:
            raise ValidationError(f"unknown rule condition {self.condition!r}")
        if self.role_match not in ("any", "all"):
            raise ValidationError(f"role_match must be any or all, got {self.role_match!r}")
        if self.role_match == "all" and not self.roles:
            raise ValidationError("role_match='all' needs at least one role")


@dataclass(frozen=True)
class ObligationSpec:
    """An obligation attached to a service-class policy."""

    obligation_id: str
    fulfill_on: str = "Permit"
    attributes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.obligation_id:
            raise ValidationError("obligation_id must be non-empty")
        if self.fulfill_on not in ("Permit", "Deny"):
            raise ValidationError("fulfill_on must be Permit or Deny")


@dataclass(frozen=True)
class ServiceClassSpec:
    """One resource type and the policy governing it.

    ``group`` is a nested PolicySet path: classes sharing a prefix are
    compiled under the same intermediate PolicySet (the delegation
    preset's two clouds), giving the tree depth; the empty path hangs
    the class policy directly off the root.
    """

    name: str
    rules: tuple[RuleSpec, ...]
    combining: str = "permit-overrides"
    obligations: tuple[ObligationSpec, ...] = ()
    group: tuple[str, ...] = ()
    policy_id: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("service class name must be non-empty")
        if not self.rules:
            raise ValidationError(f"service class {self.name!r} needs rules")


@dataclass(frozen=True)
class TreeSpec:
    """Recipe for synthesising a random service-class catalogue."""

    classes: int = 8
    depth: int = 1
    width: int = 4
    home_write_fraction: float = 0.5
    audited_fraction: float = 0.25
    clearance_fraction: float = 0.0
    deny_tail_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.classes < 1:
            raise ValidationError("tree needs at least one class")
        if self.depth < 1 or self.width < 1:
            raise ValidationError("tree depth and width must be >= 1")
        for name in ("home_write_fraction", "audited_fraction",
                     "clearance_fraction", "deny_tail_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class FederationShape:
    """Topology knobs forwarded to the federation builder."""

    clouds: int = 2

    def __post_init__(self) -> None:
        if self.clouds < 1:
            raise ValidationError("a federation needs at least one cloud")

    @property
    def tenants(self) -> tuple[str, ...]:
        """Member tenant names, matching the federation builder's."""
        return tuple(f"tenant-{i + 1}" for i in range(self.clouds))


@dataclass(frozen=True)
class PopulationSpec:
    """Size and skew of the synthetic population."""

    subjects: int = 100
    resources: int = 400
    role_weights: tuple[float, ...] = ()
    read_fraction: float = 0.8
    zipf_skew: float = 1.1
    payload_padding_bytes: int = 0
    #: Resource-type assignment order; empty = class declaration order.
    #: Repeating a class front-loads it (the elastic-scale flash-crowd
    #: magnet); every entry must name a declared class.
    catalogue: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.subjects < 1 or self.resources < 1:
            raise ValidationError("population needs subjects and resources")
        if not 0.0 < self.read_fraction <= 1.0:
            raise ValidationError("read_fraction must be in (0, 1]")
        if any(w <= 0 for w in self.role_weights):
            raise ValidationError("role_weights must be positive")


@dataclass(frozen=True)
class ArrivalSpec:
    """The arrival process: Poisson base with optional diurnal mixes."""

    rate: float = 25.0
    period: float = 0.0
    trough: float = 0.1
    harmonics: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValidationError("arrival rate must be positive")
        if self.period < 0:
            raise ValidationError("arrival period must be >= 0")
        if not 0.0 < self.trough <= 1.0:
            raise ValidationError("arrival trough must be in (0, 1]")
        for harmonic in self.harmonics:
            if len(harmonic) != 2 or harmonic[0] <= 0 or not 0.0 < harmonic[1] <= 1.0:
                raise ValidationError("harmonics entries are (period>0, trough in (0,1])")


@dataclass(frozen=True)
class ChurnSpec:
    """Mid-traffic policy rotation (the ``policy-churn`` preset's mechanism).

    Every generation re-stamps ``stamp_class``'s obligation with
    ``<stamp_prefix>-<generation>`` (distinct fingerprints) and includes
    ``toggle_rule`` only on even generations (successive versions
    disagree on real requests) — inserted ahead of a trailing bare-Deny
    rule when the class has one.
    """

    generations: int = 4
    stamp_class: str = ""
    toggle_rule: Optional[RuleSpec] = None
    stamp_prefix: str = "retention-rev"

    def __post_init__(self) -> None:
        if self.generations < 2:
            raise ValidationError("churn needs at least two generations")
        if not self.stamp_class:
            raise ValidationError("churn needs a stamp_class")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative federation scenario."""

    name: str
    roles: tuple[str, ...]
    classes: tuple[ServiceClassSpec, ...] = ()
    tree: Optional[TreeSpec] = None
    federation: FederationShape = field(default_factory=FederationShape)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    churn: Optional[ChurnSpec] = None
    attacks: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario name must be non-empty")
        if not self.roles:
            raise ValidationError("a scenario needs roles")
        if len(set(self.roles)) != len(self.roles):
            raise ValidationError("roles must be unique")
        if not self.classes and self.tree is None:
            raise ValidationError("a scenario needs classes or a tree recipe")
        if self.classes and self.tree is not None:
            raise ValidationError("classes and tree are mutually exclusive")
        if self.population.role_weights and (
                len(self.population.role_weights) != len(self.roles)):
            raise ValidationError("role_weights must align with roles")
        declared = {cls.name for cls in self.classes}
        if len(declared) != len(self.classes):
            raise ValidationError("service class names must be unique")
        for entry in self.population.catalogue:
            if self.classes and entry not in declared:
                raise ValidationError(f"catalogue entry {entry!r} is not a class")
        if self.churn is not None and self.classes and (
                self.churn.stamp_class not in declared):
            raise ValidationError("churn stamp_class must name a class")


# -- JSON round trip ----------------------------------------------------------


def spec_to_json(spec: ScenarioSpec) -> str:
    """Serialise a spec to a stable JSON string."""
    return json.dumps(asdict(spec), indent=2, sort_keys=True)


def _tuples(items, converter=None) -> tuple:
    converter = converter or (lambda item: item)
    return tuple(converter(item) for item in items or ())


def _rule_from(data: dict) -> RuleSpec:
    return RuleSpec(
        effect=data.get("effect", "Permit"),
        roles=_tuples(data.get("roles")),
        actions=_tuples(data.get("actions")),
        condition=data.get("condition", ""),
        role_match=data.get("role_match", "any"),
        rule_id=data.get("rule_id", ""),
    )


def _class_from(data: dict) -> ServiceClassSpec:
    return ServiceClassSpec(
        name=data["name"],
        rules=_tuples(data["rules"], _rule_from),
        combining=data.get("combining", "permit-overrides"),
        obligations=_tuples(
            data.get("obligations"),
            lambda o: ObligationSpec(
                obligation_id=o["obligation_id"],
                fulfill_on=o.get("fulfill_on", "Permit"),
                attributes=_tuples(o.get("attributes"), tuple),
            ),
        ),
        group=_tuples(data.get("group")),
        policy_id=data.get("policy_id", ""),
    )


def spec_from_json(text: str) -> ScenarioSpec:
    """Reconstruct a spec from :func:`spec_to_json` output.

    Raises :class:`ValidationError` and nothing else for malformed or
    too deeply nested JSON, a non-object, or a missing or unknown key.
    Value types are not checked: a field decodes to whatever its
    constructor makes of the JSON value.
    """
    try:
        return _spec_from(json.loads(text))
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ValidationError(f"not a scenario spec: {exc!r}") from None


def _spec_from(data: dict) -> ScenarioSpec:
    tree = data.get("tree")
    churn = data.get("churn")
    population = data.get("population", {})
    arrival = data.get("arrival", {})
    federation = data.get("federation", {})
    return ScenarioSpec(
        name=data["name"],
        roles=_tuples(data["roles"]),
        classes=_tuples(data.get("classes"), _class_from),
        tree=TreeSpec(**tree) if tree else None,
        federation=FederationShape(**federation),
        population=PopulationSpec(
            subjects=population.get("subjects", 100),
            resources=population.get("resources", 400),
            role_weights=_tuples(population.get("role_weights")),
            read_fraction=population.get("read_fraction", 0.8),
            zipf_skew=population.get("zipf_skew", 1.1),
            payload_padding_bytes=population.get("payload_padding_bytes", 0),
            catalogue=_tuples(population.get("catalogue")),
        ),
        arrival=ArrivalSpec(
            rate=arrival.get("rate", 25.0),
            period=arrival.get("period", 0.0),
            trough=arrival.get("trough", 0.1),
            harmonics=_tuples(arrival.get("harmonics"), tuple),
        ),
        churn=ChurnSpec(
            generations=churn["generations"],
            stamp_class=churn["stamp_class"],
            toggle_rule=_rule_from(churn["toggle_rule"]) if churn.get("toggle_rule") else None,
            stamp_prefix=churn.get("stamp_prefix", "retention-rev"),
        ) if churn else None,
        attacks=_tuples(data.get("attacks")),
        description=data.get("description", ""),
    )
