"""The ten shipped federations, each stated once as a :class:`ScenarioSpec`.

:data:`PRESET_SPECS` is the scenario corpus: every ``*_scenario()``
factory in :mod:`repro.workload.scenarios` is
``generate_scenario(preset_spec(name))``, and the compiled policy
documents are pinned byte-for-byte by the golden fingerprints in
``tests/test_scenariogen.py``.  Adding a federation is adding one
:class:`ScenarioSpec` to ``_PRESETS``.

The specs state the access rules as deployed, oddities included: the
healthcare ``clinicians-read`` rule is a ``role_match="all"``
conjunction (matches nobody with single-valued roles), and clerks get
nothing clinical.
"""

from __future__ import annotations

from repro.scenariogen.spec import (
    ArrivalSpec,
    ChurnSpec,
    ObligationSpec,
    PopulationSpec,
    RuleSpec,
    ScenarioSpec,
    ServiceClassSpec,
)

# Service-class tables of the five catalogue-shaped federations:
# class -> (reader roles, writer roles).

#: IoT device data.  Telemetry is written by devices and read by the back
#: office; control surfaces are operated; admin artefacts belong to technicians.
_IOT_DEVICE_CLASSES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "temperature": (("operator", "analyst"), ("sensor",)),
    "humidity": (("operator", "analyst"), ("sensor",)),
    "air-quality": (("operator", "analyst"), ("sensor",)),
    "power-meter": (("operator", "analyst"), ("sensor",)),
    "water-meter": (("operator", "analyst"), ("sensor",)),
    "camera-feed": (("operator",), ("sensor",)),
    "door-lock": (("operator", "technician"), ("operator",)),
    "hvac-control": (("operator", "technician"), ("operator",)),
    "valve-control": (("operator", "technician"), ("operator",)),
    "firmware-image": (("technician", "analyst"), ("technician",)),
    "device-config": (("technician", "analyst"), ("technician",)),
    "diagnostics": (("technician", "analyst"), ("sensor", "technician")),
}
_IOT_AUDITED_CLASSES = ("door-lock", "firmware-image")

#: Whole-of-government services.  Caseworkers operate the citizen-facing
#: registers, analysts and auditors consume them, service bots feed the bulk
#: ingestion pipelines.
_FEDERATION_SERVICE_CLASSES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "citizen-registry": (("caseworker", "analyst", "auditor"), ("caseworker",)),
    "tax-filing": (("caseworker", "auditor"), ("caseworker",)),
    "vehicle-licensing": (("caseworker", "analyst"), ("caseworker",)),
    "land-registry": (("caseworker", "auditor"), ("caseworker",)),
    "health-insurance": (("caseworker", "analyst", "auditor"), ("caseworker",)),
    "pension-claims": (("caseworker", "auditor"), ("caseworker",)),
    "customs-declarations": (("analyst", "auditor"), ("service-bot",)),
    "border-crossings": (("analyst", "auditor"), ("service-bot",)),
    "energy-subsidies": (("caseworker", "analyst"), ("service-bot",)),
    "education-records": (("caseworker", "analyst"), ("caseworker",)),
    "employment-records": (("caseworker", "analyst", "auditor"), ("caseworker",)),
    "social-housing": (("caseworker",), ("caseworker",)),
    "court-filings": (("auditor",), ("caseworker",)),
    "census-extracts": (("analyst", "auditor"), ("service-bot",)),
    "procurement-bids": (("analyst", "auditor"), ("service-bot",)),
    "grant-applications": (("caseworker", "analyst"), ("caseworker",)),
}
_FEDERATION_AUDITED_CLASSES = ("court-filings", "procurement-bids")

#: Civil protection.  The alert feed is the flash-crowd magnet; responders run
#: the field registers, coordinators direct them, ingest bots feed the
#: sensor-derived ledgers.
_ELASTIC_SERVICE_CLASSES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "alert-feed": (("responder", "coordinator", "analyst"), ("coordinator",)),
    "shelter-registry": (("responder", "coordinator"), ("responder",)),
    "evacuation-orders": (("responder", "coordinator", "analyst"), ("coordinator",)),
    "relief-claims": (("coordinator", "analyst"), ("responder",)),
    "medical-triage": (("responder", "coordinator"), ("responder",)),
    "volunteer-roster": (("coordinator",), ("coordinator",)),
    "traffic-status": (("responder", "analyst"), ("ingest-bot",)),
    "supply-depots": (("responder", "coordinator"), ("ingest-bot",)),
}
_ELASTIC_AUDITED_CLASSES = ("evacuation-orders", "relief-claims")

#: Municipal e-services.  Citizen-facing portals carry the daily curve;
#: back-office registers tick along underneath it.
_DIURNAL_SERVICE_CLASSES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "service-portal": (("citizen", "clerk"), ("clerk",)),
    "permit-applications": (("citizen", "clerk"), ("citizen",)),
    "parking-permits": (("citizen", "clerk"), ("clerk",)),
    "waste-collection": (("citizen", "clerk"), ("service-bot",)),
    "library-catalogue": (("citizen", "clerk"), ("service-bot",)),
    "inspection-reports": (("inspector", "clerk"), ("inspector",)),
}

#: Emergency management.  The incident log is the audited, monitored heart of
#: the exercise; the rest is continuity-of-operations traffic that must keep
#: flowing through the storm.
_STORM_SERVICE_CLASSES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "incident-log": (("operator", "commander", "liaison"), ("operator",)),
    "resource-roster": (("operator", "commander"), ("commander",)),
    "situation-map": (("operator", "commander", "liaison"), ("feed-bot",)),
    "comms-directory": (("operator", "commander", "liaison"), ("commander",)),
    "mutual-aid-requests": (("commander", "liaison"), ("liaison",)),
    "status-heartbeats": (("operator", "commander"), ("feed-bot",)),
}
#: Their Permit carries an audit obligation — those decisions must survive,
#: attributably, whatever the fault plan does.
_STORM_AUDITED_CLASSES = ("incident-log", "mutual-aid-requests")


def _catalogue_classes(
    catalogue: dict,
    audited: tuple = (),
    audit_reason: str = "",
    home_write: bool = True,
    policy_prefix: str = "",
) -> tuple:
    """The uniform per-class policy shape five scenarios share."""
    classes = []
    for name, (readers, writers) in catalogue.items():
        obligations = ()
        if name in audited:
            obligations = (
                ObligationSpec(
                    obligation_id=f"audit-{name}",
                    attributes=(("reason", audit_reason),),
                ),
            )
        write_rule = RuleSpec(
            roles=writers,
            actions=("write",),
            condition="home-tenant" if home_write else "",
            rule_id=f"{name}-home-write" if home_write else f"{name}-write",
        )
        classes.append(
            ServiceClassSpec(
                name=name,
                rules=(
                    RuleSpec(roles=readers, actions=("read",), rule_id=f"{name}-read"),
                    write_rule,
                ),
                obligations=obligations,
                policy_id=f"{policy_prefix}{name}",
            )
        )
    return tuple(classes)


_PRESETS = (
    # Cross-border healthcare (a SUNFISH public-sector use case): doctors read
    # federation-wide and write only at home, first-applicable so the home-write
    # permit precedes the blanket clinical-write denial; clerks get nothing.
    ScenarioSpec(
        name="healthcare",
        roles=("doctor", "nurse", "clerk"),
        classes=(
            ServiceClassSpec(
                name="medical-record",
                combining="first-applicable",
                rules=(
                    RuleSpec(roles=("doctor",), actions=("read",), rule_id="doctor-read"),
                    RuleSpec(
                        roles=("doctor",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="doctor-write-own-tenant",
                    ),
                    RuleSpec(
                        effect="Deny", actions=("write",), rule_id="deny-clinical-writes"
                    ),
                ),
                obligations=(
                    ObligationSpec(
                        obligation_id="log-clinical-access",
                        attributes=(("reason", "GDPR art. 9 processing record"),),
                    ),
                ),
                policy_id="medical-records",
            ),
            ServiceClassSpec(
                name="lab-result",
                rules=(
                    # A conjunction, not a disjunction: doctor AND nurse,
                    # satisfiable only by multi-role bags.
                    RuleSpec(
                        roles=("doctor", "nurse"),
                        role_match="all",
                        actions=("read",),
                        rule_id="clinicians-read",
                    ),
                ),
                policy_id="lab-results",
            ),
        ),
        population=PopulationSpec(
            subjects=60,
            resources=300,
            role_weights=(0.35, 0.35, 0.30),
            read_fraction=0.85,
        ),
        arrival=ArrivalSpec(rate=2.0),
        description="Hospitals in two clouds share records and lab results.",
    ),
    # Ministry document sharing: clearance-gated reads, office-hour audits,
    # home-tenant writes — the condition-heavy policy.
    ScenarioSpec(
        name="ministry",
        roles=("officer", "auditor", "intern"),
        classes=(
            ServiceClassSpec(
                name="tax-document",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("officer",),
                        actions=("read",),
                        condition="clearance",
                        rule_id="officer-clearance-read",
                    ),
                    RuleSpec(
                        roles=("auditor",),
                        actions=("read",),
                        condition="office-hours",
                        rule_id="auditor-office-hours",
                    ),
                    RuleSpec(
                        roles=("officer",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="owner-tenant-write",
                    ),
                    RuleSpec(effect="Deny", rule_id="default-deny"),
                ),
                obligations=(
                    ObligationSpec(
                        obligation_id="notify-owner",
                        attributes=(("channel", "audit-queue"),),
                    ),
                ),
                policy_id="tax-documents",
            ),
        ),
        population=PopulationSpec(
            subjects=40,
            resources=150,
            role_weights=(0.5, 0.2, 0.3),
            read_fraction=0.7,
        ),
        arrival=ArrivalSpec(rate=2.0),
        description="Finance and interior ministries share tax documents.",
    ),
    # High-fan-out IoT/edge: one small policy per device-data class, so the tree
    # is wide and flat and a request matches exactly one branch (the target
    # index's best case, the slow path's worst).
    ScenarioSpec(
        name="iot-edge",
        roles=("sensor", "technician", "operator", "analyst"),
        classes=_catalogue_classes(
            _IOT_DEVICE_CLASSES,
            audited=_IOT_AUDITED_CLASSES,
            audit_reason="safety-critical device class",
            home_write=False,
            policy_prefix="iot-",
        ),
        population=PopulationSpec(
            subjects=200,
            resources=600,
            role_weights=(0.45, 0.15, 0.25, 0.15),
            read_fraction=0.6,
        ),
        arrival=ArrivalSpec(rate=2.0),
        description="Edge clouds exchange telemetry, control and firmware "
        "for a dozen device-data classes.",
    ),
    # Cross-cloud delegation with deep nesting (federation -> cloud -> domain ->
    # policy): delegates read only what their clearance covers, and the index
    # must prove NoMatch through several target layers.
    ScenarioSpec(
        name="delegation",
        roles=("hr-officer", "finance-officer", "operator", "auditor", "delegate"),
        classes=(
            ServiceClassSpec(
                name="hr-record",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("hr-officer",), actions=("read",), rule_id="hr-officer-read"
                    ),
                    RuleSpec(
                        roles=("hr-officer",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="hr-officer-home-write",
                    ),
                    RuleSpec(
                        roles=("delegate",),
                        actions=("read",),
                        condition="clearance",
                        rule_id="delegate-attenuated-read",
                    ),
                    RuleSpec(effect="Deny", rule_id="hr-record-default-deny"),
                ),
                obligations=(
                    ObligationSpec(
                        obligation_id="record-delegated-access",
                        attributes=(("registry", "delegation-ledger"),),
                    ),
                ),
                group=("cloud-a", "hr-domain"),
                policy_id="hr-records",
            ),
            ServiceClassSpec(
                name="finance-record",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("finance-officer",),
                        actions=("read",),
                        rule_id="finance-officer-read",
                    ),
                    RuleSpec(
                        roles=("finance-officer",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="finance-officer-home-write",
                    ),
                    RuleSpec(
                        roles=("delegate",),
                        actions=("read",),
                        condition="clearance",
                        rule_id="delegate-attenuated-read",
                    ),
                    RuleSpec(effect="Deny", rule_id="finance-record-default-deny"),
                ),
                group=("cloud-a", "finance-domain"),
                policy_id="finance-records",
            ),
            ServiceClassSpec(
                name="ops-log",
                combining="first-applicable",
                rules=(
                    RuleSpec(roles=("operator",), rule_id="operator-read-write"),
                    RuleSpec(
                        roles=("auditor",), actions=("read",), rule_id="auditor-read"
                    ),
                    RuleSpec(effect="Deny", rule_id="ops-default-deny"),
                ),
                group=("cloud-b",),
                policy_id="ops-logs",
            ),
            ServiceClassSpec(
                name="audit-trail",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("auditor",), actions=("read",), rule_id="auditor-read-trail"
                    ),
                    RuleSpec(
                        roles=("operator",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="operator-home-append",
                    ),
                    RuleSpec(effect="Deny", rule_id="trail-default-deny"),
                ),
                obligations=(
                    ObligationSpec(
                        obligation_id="notify-audit-board",
                        fulfill_on="Deny",
                        attributes=(("channel", "compliance-queue"),),
                    ),
                ),
                group=("cloud-b",),
                policy_id="audit-trails",
            ),
        ),
        population=PopulationSpec(
            subjects=80,
            resources=240,
            role_weights=(0.25, 0.2, 0.2, 0.15, 0.2),
            read_fraction=0.75,
        ),
        arrival=ArrivalSpec(rate=2.0),
        description="Cross-cloud delegation over nested administrative "
        "and operational domains.",
    ),
    # Compliance-logging burst, shaped to stress the monitoring plane rather than
    # the PDP: the flooding tenant's service accounts dominate the population and
    # write at a high rate, so with tight ``max_block_txs``/``max_block_bytes``
    # block templates hit the caps and a mempool backlog stands.
    ScenarioSpec(
        name="audit-burst",
        roles=("service", "auditor", "operator"),
        classes=(
            ServiceClassSpec(
                name="audit-entry",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("service",), actions=("write",), rule_id="service-append"
                    ),
                    RuleSpec(
                        roles=("auditor",), actions=("read",), rule_id="auditor-read"
                    ),
                    RuleSpec(effect="Deny", rule_id="audit-default-deny"),
                ),
                obligations=(
                    ObligationSpec(
                        obligation_id="retain-seven-years",
                        attributes=(("basis", "compliance mandate"),),
                    ),
                ),
                policy_id="audit-log",
            ),
            ServiceClassSpec(
                name="service-record",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("operator",), actions=("read",), rule_id="operator-read"
                    ),
                    RuleSpec(
                        roles=("operator",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="operator-home-write",
                    ),
                    RuleSpec(effect="Deny", rule_id="records-default-deny"),
                ),
                policy_id="service-records",
            ),
        ),
        population=PopulationSpec(
            subjects=120,
            resources=480,
            role_weights=(0.7, 0.1, 0.2),
            read_fraction=0.25,
            zipf_skew=1.3,
        ),
        arrival=ArrivalSpec(rate=25.0),
        description="A tenant's services flood the chain with audit "
        "appends while operators keep working.",
    ),
    # Whole-of-government federation sized to saturate one PDP (E11): 2 500
    # arrivals/s against a 2 000/s cache-hit service rate, so the backlog grows
    # until the decision plane is sharded; home-gated writes give routing both
    # locality branches.
    ScenarioSpec(
        name="federation-scale",
        roles=("caseworker", "analyst", "auditor", "service-bot"),
        classes=_catalogue_classes(
            _FEDERATION_SERVICE_CLASSES,
            audited=_FEDERATION_AUDITED_CLASSES,
            audit_reason="public-integrity register",
            policy_prefix="svc-",
        ),
        population=PopulationSpec(
            subjects=500,
            resources=2000,
            role_weights=(0.4, 0.25, 0.15, 0.2),
            read_fraction=0.65,
        ),
        arrival=ArrivalSpec(rate=2500.0),
        description="A whole-of-government federation whose arrival rate "
        "exceeds one PDP evaluator's service rate.",
    ),
    # Case handling under live policy churn (E12): every generation re-stamps
    # the retention obligation (distinct fingerprints) and contractor reads
    # toggle with parity (distinct decisions), so a replica one version behind
    # is wrong under the head but right under its own version — the honest
    # churn the version-stamped pipeline must not mistake for tampering.
    ScenarioSpec(
        name="policy-churn",
        roles=("caseworker", "contractor", "auditor"),
        classes=(
            ServiceClassSpec(
                name="case-file",
                combining="first-applicable",
                rules=(
                    RuleSpec(
                        roles=("caseworker",), actions=("read",), rule_id="caseworker-read"
                    ),
                    RuleSpec(
                        roles=("caseworker",),
                        actions=("write",),
                        condition="home-tenant",
                        rule_id="caseworker-home-write",
                    ),
                    RuleSpec(
                        roles=("auditor",), actions=("read",), rule_id="auditor-read"
                    ),
                    RuleSpec(effect="Deny", rule_id="case-default-deny"),
                ),
                policy_id="case-files",
            ),
        ),
        churn=ChurnSpec(
            generations=4,
            stamp_class="case-file",
            toggle_rule=RuleSpec(
                roles=("contractor",), actions=("read",), rule_id="contractor-read"
            ),
        ),
        population=PopulationSpec(
            subjects=150,
            resources=600,
            role_weights=(0.45, 0.35, 0.2),
            read_fraction=0.8,
        ),
        arrival=ArrivalSpec(rate=25.0),
        description="Case handling while the policy is republished "
        "mid-traffic; contractor access flips per generation.",
    ),
    # Civil-protection flash crowd (E13): the catalogue is front-loaded onto the
    # alert feed and strongly Zipf-skewed, so a few decision-cache keys run their
    # shards hot while ring neighbours idle, and 3 000 arrivals/s out-run any
    # fixed pool — the add/drain substrate.
    ScenarioSpec(
        name="elastic-scale",
        roles=("responder", "coordinator", "analyst", "ingest-bot"),
        classes=_catalogue_classes(
            _ELASTIC_SERVICE_CLASSES,
            audited=_ELASTIC_AUDITED_CLASSES,
            audit_reason="emergency-powers accountability record",
            policy_prefix="civ-",
        ),
        population=PopulationSpec(
            subjects=300,
            resources=900,
            role_weights=(0.45, 0.2, 0.15, 0.2),
            read_fraction=0.75,
            zipf_skew=1.5,
            catalogue=("alert-feed",) * 3
            + tuple(c for c in _ELASTIC_SERVICE_CLASSES if c != "alert-feed"),
        ),
        arrival=ArrivalSpec(rate=3000.0),
        description="A civil-protection flash crowd whose hot keys and "
        "spiking arrival rate demand an elastic decision plane.",
    ),
    # Municipal e-services over a compressed day (E14): a raised-cosine arrival
    # curve from a 350/s peak to a tenth of it and back, where the right answer
    # is to drain shards into the trough and re-add them, warm, for the crest.
    ScenarioSpec(
        name="diurnal",
        roles=("citizen", "clerk", "inspector", "service-bot"),
        classes=_catalogue_classes(_DIURNAL_SERVICE_CLASSES, policy_prefix="mun-"),
        population=PopulationSpec(
            subjects=300,
            resources=800,
            role_weights=(0.65, 0.2, 0.05, 0.1),
            read_fraction=0.85,
            zipf_skew=1.2,
        ),
        arrival=ArrivalSpec(rate=350.0, period=6.0, trough=0.1),
        description="Citizens work the municipal portals through a daily "
        "peak-trough-peak arrival curve; the efficient plane "
        "sheds shards into the trough.",
    ),
    # Emergency management under a fault plan (E15, E16): modest, read-heavy
    # arrivals so lost and re-routed decisions are not drowned in queueing noise,
    # home-gated writes so failover exercises the same branches as the calm run,
    # and audit obligations so each such decision is a monitored transaction.
    ScenarioSpec(
        name="partition-storm",
        roles=("operator", "commander", "liaison", "feed-bot"),
        classes=_catalogue_classes(
            _STORM_SERVICE_CLASSES,
            audited=_STORM_AUDITED_CLASSES,
            audit_reason="emergency-operations accountability record",
            policy_prefix="em-",
        ),
        population=PopulationSpec(
            subjects=200,
            resources=600,
            role_weights=(0.5, 0.2, 0.15, 0.15),
            read_fraction=0.85,
        ),
        arrival=ArrivalSpec(rate=150.0),
        description="An emergency-management federation that must keep "
        "resolving access decisions while a scripted fault plan "
        "partitions, crashes and degrades the substrate.",
    ),
)


#: The corpus: preset name -> spec, in the stable sweep order that
#: ``SCENARIO_FACTORIES`` and ``all_scenarios()`` follow.
PRESET_SPECS: dict[str, ScenarioSpec] = {spec.name: spec for spec in _PRESETS}


def preset_spec(name: str) -> ScenarioSpec:
    """Look a preset up by scenario name."""
    if name not in PRESET_SPECS:
        raise KeyError(f"no preset spec named {name!r}; known: {', '.join(PRESET_SPECS)}")
    return PRESET_SPECS[name]
