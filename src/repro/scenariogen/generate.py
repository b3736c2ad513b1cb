"""Compile :class:`ScenarioSpec`s into runnable scenarios.

``generate_scenario(spec, seed)`` is a pure function of its arguments:
all randomness (random-tree synthesis, attack parameterisation) flows
through ``SeededRng(seed, "scenariogen/<name>")``, so the same spec and
seed always compile to the bit-identical
:class:`~repro.workload.scenarios.Scenario` — the property the
determinism suite and the E18 benchmark pin.

Synthesised trees carry validity guarantees (enforced by a post-pass,
checked by :func:`validity_report`): every service class has at least
one reader, every role reads at least one class, and — because read
rules are never tenant-gated — every tenant has a permit path.
The explicit-class presets state their access rules as written instead
(healthcare clerks really do get nothing clinical).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.analysis.properties import AttributeDomain
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.scenariogen.spec import (
    ChurnSpec,
    ObligationSpec,
    RuleSpec,
    ScenarioSpec,
    ServiceClassSpec,
)
from repro.workload.generator import WorkloadConfig
from repro.workload.scenarios import Scenario
from repro.xacml.attributes import DataType
from repro.xacml.context import Obligation
from repro.xacml.expressions import Apply, AttributeDesignator, Literal
from repro.xacml.parser import policy_to_dict
from repro.xacml.policy import (
    AllOf,
    AnyOf,
    Effect,
    Match,
    Policy,
    PolicySet,
    Rule,
    Target,
)

# -- targets and conditions ----------------------------------------------------


def _disjunction_target(category: str, attribute_id: str, values: tuple[str, ...]) -> Target:
    """Target matching when the attribute equals *any* of ``values``."""
    designator = AttributeDesignator(category, attribute_id)
    all_ofs = tuple(AllOf(matches=(Match("string-equal", value, designator),)) for value in values)
    return Target(any_ofs=(AnyOf(all_ofs=all_ofs),))


def _action_is(action: str) -> Apply:
    designator = AttributeDesignator("action", "action-id")
    return Apply("any-of", (Literal("string-equal"), Literal(action), designator))


def _one(category: str, attribute_id: str, data_type: str) -> Apply:
    return Apply("one-and-only", (AttributeDesignator(category, attribute_id, data_type),))


def _home_tenant() -> Apply:
    """The request originates from the tenant owning the resource."""
    origin = AttributeDesignator("environment", "origin-tenant")
    owner = AttributeDesignator("resource", "owner-tenant")
    return Apply("any-of-any", (Literal("string-equal"), origin, owner))


def _clearance_covers_sensitivity() -> Apply:
    clearance = _one("subject", "clearance", DataType.INTEGER)
    sensitivity = _one("resource", "sensitivity", DataType.INTEGER)
    return Apply("integer-greater-than-or-equal", (clearance, sensitivity))


def _office_hours() -> Apply:
    time_of_day = _one("environment", "time-of-day", DataType.DOUBLE)
    return Apply("time-in-range", (time_of_day, Literal(9.0 * 3600), Literal(17.0 * 3600)))


_CONDITION_BUILDERS = {
    "home-tenant": _home_tenant,
    "clearance": _clearance_covers_sensitivity,
    "office-hours": _office_hours,
}


# -- rule and policy compilation ----------------------------------------------


def _compile_rule(rule: RuleSpec, class_name: str, position: int) -> Rule:
    target = Target.match_all()
    if rule.roles:
        if rule.role_match == "any":
            target = _disjunction_target("subject", "role", rule.roles)
        else:
            # Conjunction: one AnyOf per role, all of which must match —
            # satisfiable only by multi-valued role bags (the healthcare
            # preset's ``clinicians-read`` shape).
            singles = tuple(
                Target.single("string-equal", role, "subject", "role")
                for role in rule.roles
            )
            target = Target(
                any_ofs=tuple(any_of for single in singles for any_of in single.any_ofs)
            )
    conditions = []
    if rule.actions:
        if len(rule.actions) == 1:
            conditions.append(_action_is(rule.actions[0]))
        else:
            conditions.append(Apply("or", tuple(_action_is(a) for a in rule.actions)))
    if rule.condition:
        conditions.append(_CONDITION_BUILDERS[rule.condition]())
    if not conditions:
        condition = None
    elif len(conditions) == 1:
        condition = conditions[0]
    else:
        condition = Apply("and", tuple(conditions))
    effect = Effect.PERMIT if rule.effect == "Permit" else Effect.DENY
    rule_id = rule.rule_id or f"{class_name}-rule-{position}"
    return Rule(rule_id, effect, target=target, condition=condition)


def _compile_class(cls: ServiceClassSpec) -> Policy:
    return Policy(
        policy_id=cls.policy_id or cls.name,
        rule_combining=cls.combining,
        target=Target.single("string-equal", cls.name, "resource", "type"),
        rules=[
            _compile_rule(rule, cls.name, position)
            for position, rule in enumerate(cls.rules)
        ],
        obligations=[
            Obligation(o.obligation_id, o.fulfill_on, dict(o.attributes))
            for o in cls.obligations
        ],
        description=f"{cls.name}: generated service-class policy.",
    )


def _build_children(prefix: tuple, members: list) -> list:
    """Nest class policies under group PolicySets, preserving order."""
    children = []
    seen: list[tuple] = []
    for cls, policy in members:
        if cls.group == prefix:
            children.append(policy)
            continue
        sub = cls.group[: len(prefix) + 1]
        if sub in seen:
            continue
        seen.append(sub)
        subset = [(c, p) for c, p in members if c.group[: len(sub)] == sub]
        children.append(
            PolicySet(
                policy_set_id="-".join(sub),
                policy_combining="permit-overrides",
                target=_disjunction_target(
                    "resource", "type", tuple(c.name for c, _ in subset)
                ),
                children=_build_children(sub, subset),
            )
        )
    return children


def _compile_document(spec: ScenarioSpec, classes: tuple) -> dict:
    members = [(cls, _compile_class(cls)) for cls in classes]
    root = PolicySet(
        policy_set_id=f"{spec.name}-federation",
        policy_combining="deny-unless-permit",
        children=_build_children((), members),
        description=f"{spec.name}: generated federation; default deny.",
    )
    return policy_to_dict(root)


# -- churn ---------------------------------------------------------------------


def _churn_classes(classes: tuple, churn: ChurnSpec, generation: int) -> tuple:
    """The service-class catalogue as of policy ``generation``."""
    out = []
    for cls in classes:
        if cls.name != churn.stamp_class:
            out.append(cls)
            continue
        rules = list(cls.rules)
        if churn.toggle_rule is not None and generation % 2 == 0:
            tail = rules[-1]
            bare_deny = (
                tail.effect == "Deny"
                and not tail.roles
                and not tail.actions
                and not tail.condition
            )
            rules.insert(len(rules) - 1 if bare_deny else len(rules), churn.toggle_rule)
        stamp = ObligationSpec(
            obligation_id=f"{churn.stamp_prefix}-{generation}",
            fulfill_on="Permit",
            attributes=(("policy-generation", str(generation)),),
        )
        out.append(replace(cls, rules=tuple(rules), obligations=(stamp,)))
    return tuple(out)


# -- random-tree synthesis -----------------------------------------------------


def _synthesise_classes(spec: ScenarioSpec, rng: SeededRng) -> tuple:
    tree = spec.tree
    roles = spec.roles
    classes = []
    reader_union: set[str] = set()
    for index in range(tree.classes):
        readers = tuple(rng.sample(roles, rng.randint(1, len(roles))))
        writers = tuple(rng.sample(roles, rng.randint(1, len(roles))))
        reader_union.update(readers)
        read_condition = "clearance" if rng.random() < tree.clearance_fraction else ""
        write_condition = "home-tenant" if rng.random() < tree.home_write_fraction else ""
        rules = [
            RuleSpec(roles=readers, actions=("read",), condition=read_condition),
            RuleSpec(roles=writers, actions=("write",), condition=write_condition),
        ]
        combining = "permit-overrides"
        if rng.random() < tree.deny_tail_fraction:
            rules.append(RuleSpec(effect="Deny"))
            combining = "first-applicable"
        obligations = ()
        if rng.random() < tree.audited_fraction:
            obligations = (
                ObligationSpec(
                    obligation_id=f"audit-{spec.name}-class-{index:02d}",
                    attributes=(("reason", "generated audited class"),),
                ),
            )
        group = tuple(
            f"{spec.name}-g{level}-{(index // tree.width**level) % tree.width}"
            for level in range(tree.depth - 1)
        )
        classes.append(
            ServiceClassSpec(
                name=f"{spec.name}-class-{index:02d}",
                rules=tuple(rules),
                combining=combining,
                obligations=obligations,
                group=group,
            )
        )
    # Validity post-pass: a role no class reads gets grafted onto a
    # deterministic class's read rule, so every role stays reachable.
    for role in roles:
        if role in reader_union:
            continue
        slot = rng.randint(0, len(classes) - 1)
        cls = classes[slot]
        read_rule = cls.rules[0]
        classes[slot] = replace(
            cls,
            rules=(replace(read_rule, roles=read_rule.roles + (role,)),)
            + cls.rules[1:],
        )
    return tuple(classes)


# -- top-level compilation -----------------------------------------------------


def resolve_classes(spec: ScenarioSpec, seed: int = 7) -> tuple:
    """The spec's explicit classes, or the tree recipe expanded under ``seed``."""
    if spec.classes:
        return spec.classes
    rng = SeededRng(seed, f"scenariogen/{spec.name}")
    return _synthesise_classes(spec, rng)


def _build_domain(spec: ScenarioSpec, classes: tuple) -> AttributeDomain:
    domain = AttributeDomain()
    domain.declare("subject", "role", list(spec.roles))
    domain.declare("action", "action-id", ["read", "write"])
    domain.declare("resource", "type", [cls.name for cls in classes])
    conditions = {rule.condition for cls in classes for rule in cls.rules}
    if "home-tenant" in conditions:
        tenants = list(spec.federation.tenants)
        domain.declare("resource", "owner-tenant", tenants)
        domain.declare("environment", "origin-tenant", tenants)
    if "clearance" in conditions:
        domain.declare("subject", "clearance", [1, 3, 5])
        domain.declare("resource", "sensitivity", [1, 3, 5])
    if "office-hours" in conditions:
        domain.declare(
            "environment", "time-of-day", [8.0 * 3600, 12.0 * 3600, 20.0 * 3600]
        )
    return domain


def _build_workload(spec: ScenarioSpec, classes: tuple) -> WorkloadConfig:
    population = spec.population
    arrival = spec.arrival
    catalogue = population.catalogue or tuple(cls.name for cls in classes)
    if population.role_weights:
        role_weights = population.role_weights
    else:
        role_weights = tuple(
            round(1.0 / len(spec.roles), 10) for _ in spec.roles
        )
    return WorkloadConfig(
        subjects=population.subjects,
        resources=population.resources,
        roles=spec.roles,
        role_weights=role_weights,
        resource_types=catalogue,
        actions=("read", "write"),
        action_weights=(
            population.read_fraction,
            round(1.0 - population.read_fraction, 10),
        ),
        zipf_skew=population.zipf_skew,
        arrival_rate=arrival.rate,
        payload_padding_bytes=population.payload_padding_bytes,
        arrival_period=arrival.period,
        arrival_trough=arrival.trough,
        arrival_harmonics=arrival.harmonics,
    )


def generate_scenario(spec: ScenarioSpec, seed: int = 7) -> Scenario:
    """Compile ``spec`` into a runnable, reproducible :class:`Scenario`."""
    classes = resolve_classes(spec, seed=seed)
    if spec.churn is not None:
        if not any(cls.name == spec.churn.stamp_class for cls in classes):
            raise ValidationError("churn stamp_class must name a resolved class")
        document = _compile_document(spec, _churn_classes(classes, spec.churn, 0))
        variants = tuple(
            _compile_document(spec, _churn_classes(classes, spec.churn, generation))
            for generation in range(1, spec.churn.generations)
        )
    else:
        document = _compile_document(spec, classes)
        variants = ()
    return Scenario(
        name=spec.name,
        policy_document=document,
        workload=_build_workload(spec, classes),
        domain=_build_domain(spec, classes),
        description=spec.description or f"Generated scenario {spec.name}.",
        policy_variants=variants,
    )


# -- validity ------------------------------------------------------------------


def _read_witness(
    rule: RuleSpec, cls: ServiceClassSpec, tenant: str
) -> Optional[dict]:
    """A request this read rule should Permit, or None if it can't."""
    if rule.effect != "Permit" or not rule.roles:
        return None
    if rule.actions and "read" not in rule.actions:
        return None
    roles = list(rule.roles) if rule.role_match == "all" else [rule.roles[0]]
    return {
        "subject": {"role": roles, "clearance": [5]},
        "action": {"action-id": ["read"]},
        "resource": {
            "type": [cls.name],
            "sensitivity": [1],
            "owner-tenant": [tenant],
        },
        "environment": {"origin-tenant": [tenant], "time-of-day": [12.0 * 3600]},
    }


def validity_report(spec: ScenarioSpec, seed: int = 7) -> dict:
    """Check the generator's validity guarantees against the compiled policy.

    For every role, service class and tenant the report evaluates a
    concrete witness request against the compiled document and records
    whether a permit path exists.  ``ok`` is the conjunction — guaranteed
    ``True`` for tree-synthesised specs; explicit-class presets may
    legitimately fail it (their rules say so, not a generator bug).
    """
    from repro.analysis.semantics import evaluate_document

    classes = resolve_classes(spec, seed=seed)
    scenario = generate_scenario(spec, seed=seed)
    document = scenario.policy_document
    tenants = spec.federation.tenants
    roles_reachable = {role: False for role in spec.roles}
    classes_readable = {cls.name: False for cls in classes}
    tenant_permit = {tenant: False for tenant in tenants}
    for cls in classes:
        for rule in cls.rules:
            for tenant in tenants:
                witness = _read_witness(rule, cls, tenant)
                if witness is None:
                    continue
                if evaluate_document(document, witness) != "Permit":
                    continue
                classes_readable[cls.name] = True
                tenant_permit[tenant] = True
                for role in rule.roles:
                    roles_reachable[role] = True
    return {
        "roles_reachable": roles_reachable,
        "classes_readable": classes_readable,
        "tenant_permit_paths": tenant_permit,
        "ok": (
            all(roles_reachable.values())
            and all(classes_readable.values())
            and all(tenant_permit.values())
        ),
    }


# -- attack mix ----------------------------------------------------------------


def default_attacks(spec: ScenarioSpec, seed: int = 7) -> list:
    """Instantiate the spec's attack mix, deterministically parameterised.

    Attack names come from
    :data:`repro.threats.attacks.ATTACK_CATALOGUE`; target tenants,
    escalated roles and rogue documents are drawn from the scenariogen
    stream so the same spec + seed always builds the same campaign.  The
    two PRP-replica attacks require a replicated policy plane at build
    time, as ever.
    """
    from repro.threats import attacks as threat_attacks

    rng = SeededRng(seed, f"scenariogen/{spec.name}/attacks")
    tenants = spec.federation.tenants
    rogue = policy_to_dict(
        Policy(
            policy_id=f"{spec.name}-rogue",
            rule_combining="permit-overrides",
            rules=[Rule("allow-everything", Effect.PERMIT)],
        )
    )
    campaign = []
    for name in spec.attacks:
        if name not in threat_attacks.ATTACK_CATALOGUE:
            raise ValidationError(f"unknown attack {name!r}")
        tenant = rng.choice(tenants)
        if name == "request-tamper":
            campaign.append(
                threat_attacks.RequestTamperAttack(
                    tenant, escalated_value=rng.choice(spec.roles)
                )
            )
        elif name == "decision-tamper":
            campaign.append(threat_attacks.DecisionTamperAttack(tenant))
        elif name == "pdp-circumvention":
            campaign.append(threat_attacks.CircumventionAttack(tenant))
        elif name == "evaluation-tamper":
            campaign.append(threat_attacks.EvaluationTamperAttack())
        elif name == "policy-swap":
            campaign.append(threat_attacks.PolicySwapAttack(rogue))
        elif name == "probe-suppression":
            campaign.append(threat_attacks.ProbeSuppressionAttack(f"pep:{tenant}"))
        elif name == "log-tamper":
            campaign.append(threat_attacks.LogTamperAttack(tenant))
        elif name == "replay":
            campaign.append(threat_attacks.ReplayAttack(tenant))
        elif name == "stale-policy-replay":
            campaign.append(threat_attacks.StalePolicyReplayAttack())
        elif name == "tampered-prp-replica":
            campaign.append(threat_attacks.TamperedPrpReplicaAttack(rogue))
    return campaign


# -- deployment ----------------------------------------------------------------


def build_stack_from_spec(spec: ScenarioSpec, seed: int = 7, **build_kwargs):
    """Compile ``spec`` and deploy it as a :class:`MonitoredFederation`.

    The federation shape (cloud count) comes from the spec; everything
    else (``with_drams``, ``drams_config``, planes, telemetry, ...) passes
    through to ``MonitoredFederation.build``.
    """
    from repro.federation.federation import FederationConfig
    from repro.harness import MonitoredFederation

    scenario = generate_scenario(spec, seed=seed)
    clouds = spec.federation.clouds
    return MonitoredFederation.build(
        scenario,
        clouds=clouds,
        seed=seed,
        federation_config=FederationConfig(
            name=f"faas-{scenario.name}", cloud_count=clouds, seed=seed
        ),
        **build_kwargs,
    )
