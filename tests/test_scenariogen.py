"""Scenario-generator property suite.

Four claims, stacked from document level up to full deployments:

- **Corpus** — the ten presets compile to golden-pinned policy
  documents (churn generations included), and every ``*_scenario()``
  factory in :data:`~repro.workload.scenarios.SCENARIO_FACTORIES` is its
  compiled preset, in preset order.
- **Validity** — tree-synthesised specs honour the generator's
  guarantees on every hypothesis draw: all roles reachable, all service
  classes readable, a permit path for every tenant.
- **Determinism** — same spec + same seed reproduces the documents and
  workload exactly, and a rebuilt stack replays bit-identical decisions,
  alerts and chain head; streaming issuance enforces the same outcomes
  as the materialised batch path.
- **Soundness / completeness** — honest random federations raise zero
  alerts; every threat class in a spec's attack mix is detected.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import hash_value
from repro.scenariogen import (
    ArrivalSpec,
    FederationShape,
    PopulationSpec,
    PRESET_SPECS,
    ScenarioSpec,
    TreeSpec,
    build_stack_from_spec,
    default_attacks,
    generate_scenario,
    preset_spec,
    spec_from_json,
    spec_to_json,
    validity_report,
)
from repro.threats.adversary import Adversary
from repro.workload.scenarios import SCENARIO_FACTORIES, all_scenarios
from tests.conftest import fast_drams_config
from tests.strategies import scenario_specs

#: ``hash_value([policy_document, *policy_variants])[:16]`` per preset.  The
#: compiled document is the canonical one, and ``bench/`` builds its
#: workloads from these presets: a moved fingerprint moves the benchmark.
GOLDEN_FINGERPRINTS = {
    "healthcare": "9dda9704090cd230",
    "ministry": "1074d88c9a7c4031",
    "iot-edge": "3550673a5c055f4b",
    "delegation": "4610c9bdb8ffcf07",
    "audit-burst": "b6687383f695e239",
    "federation-scale": "1c81ca381fc7d9d9",
    "policy-churn": "826884423ef79d67",
    "elastic-scale": "160772da88df3b2d",
    "diurnal": "ef8de557ee0aa04c",
    "partition-storm": "1f980507752a1e4d",
}

#: Shrunk failing examples, one JSON file each: the spec, the builder seed,
#: how many requests to issue and how long to run, under
#: ``fast_drams_config()``.  Every entry replays in tier-1.
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))

#: A fixed tree-synthesised spec small enough for stack-level runs.
SMALL_SPEC = ScenarioSpec(
    name="prop-small",
    roles=("analyst", "operator", "auditor"),
    tree=TreeSpec(classes=3, depth=1, width=2, audited_fraction=0.5),
    federation=FederationShape(clouds=2),
    population=PopulationSpec(subjects=12, resources=24, read_fraction=0.7),
    arrival=ArrivalSpec(rate=2.0),
    description="small synthetic federation for stack-level properties",
)


def _build_and_run(spec, *, seed, requests=10, horizon=30.0, **build_kwargs):
    stack = build_stack_from_spec(
        spec, seed=seed, drams_config=fast_drams_config(), **build_kwargs)
    stack.start()
    stack.issue_requests(requests)
    stack.run(until=horizon)
    return stack


# -- the preset corpus ---------------------------------------------------------


class TestPresetConformance:
    @pytest.mark.parametrize("name", PRESET_SPECS)
    def test_golden_fingerprint(self, name):
        compiled = generate_scenario(preset_spec(name))
        documents = [compiled.policy_document, *compiled.policy_variants]
        assert hash_value(documents)[:16] == GOLDEN_FINGERPRINTS.get(name)

    @pytest.mark.parametrize(
        "factory,name", list(zip(SCENARIO_FACTORIES, PRESET_SPECS)), ids=list(PRESET_SPECS)
    )
    def test_factory_is_compiled_preset(self, factory, name):
        assert factory.__name__ == name.replace("-", "_") + "_scenario"
        assert factory() == generate_scenario(preset_spec(name))

    def test_sweep_order_is_preset_order(self):
        assert [scenario.name for scenario in all_scenarios()] == list(PRESET_SPECS)

    def test_preset_lookup(self):
        assert preset_spec("healthcare").name == "healthcare"
        with pytest.raises(KeyError, match="nonesuch.*healthcare.*partition-storm"):
            preset_spec("nonesuch")


# -- spec serialisation --------------------------------------------------------


class TestSpecJson:
    @pytest.mark.parametrize("name", PRESET_SPECS)
    def test_preset_round_trip(self, name):
        spec = preset_spec(name)
        assert spec_from_json(spec_to_json(spec)) == spec

    @given(scenario_specs())
    @settings(max_examples=50, deadline=None)
    def test_sampled_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec


# -- validity guarantees -------------------------------------------------------


class TestValidityGuarantees:
    @given(scenario_specs(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_tree_synthesised_specs_are_valid(self, spec, seed):
        report = validity_report(spec, seed=seed)
        assert report["ok"], report


# -- determinism ---------------------------------------------------------------


class TestDeterminism:
    @given(scenario_specs(), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_same_spec_same_seed_compiles_identically(self, spec, seed):
        first = generate_scenario(spec, seed=seed)
        second = generate_scenario(spec, seed=seed)
        assert first.policy_document == second.policy_document
        assert first.workload == second.workload
        assert first.policy_variants == second.policy_variants

    def test_stack_rerun_is_bit_identical(self):
        first = _build_and_run(SMALL_SPEC, seed=11).fingerprint()
        second = _build_and_run(SMALL_SPEC, seed=11).fingerprint()
        assert first == second
        assert first["decisions"], "the run must actually enforce decisions"

    def test_different_seed_diverges(self):
        """The fingerprint is sensitive — different seed, different run."""
        first = _build_and_run(SMALL_SPEC, seed=11).fingerprint()
        second = _build_and_run(SMALL_SPEC, seed=12).fingerprint()
        assert first["chain_head"] != second["chain_head"]


# -- streaming issuance --------------------------------------------------------


class TestStreamingHarness:
    def _build(self, with_drams=False):
        drams = {"drams_config": fast_drams_config()} if with_drams else {"with_drams": False}
        stack = build_stack_from_spec(SMALL_SPEC, **drams)
        stack.start()
        return stack

    @pytest.mark.parametrize("with_drams", [False, True], ids=["unmonitored", "monitored"])
    def test_stream_enforces_same_outcomes_as_batch(self, with_drams):
        batch = self._build(with_drams)
        batch.issue_requests(40)
        batch.run(until=60.0)

        streamed = self._build(with_drams)
        handle = streamed.issue_stream(40, record_outcomes=True)
        streamed.run(until=60.0)

        assert handle.issued == 40
        assert handle.metrics is streamed.metrics
        assert streamed.metrics.count == len(batch.outcomes) == 40
        assert streamed.metrics.grants == sum(1 for o in batch.outcomes if o.granted)
        fingerprint = streamed.fingerprint()
        assert fingerprint == batch.fingerprint()
        if with_drams:
            assert fingerprint["checked"] == 40 and fingerprint["chain_head"] is not None

    def test_stream_default_keeps_outcomes_empty(self):
        stack = self._build()
        handle = stack.issue_stream(25)
        stack.run(until=60.0)
        assert handle.metrics.count == 25
        assert stack.outcomes == []
        snapshot = handle.metrics.snapshot()
        assert snapshot["count"] == 25
        assert sum(w["count"] for w in snapshot["windows"]) == 25


# -- monitor soundness ---------------------------------------------------------


class TestMonitorSoundness:
    @given(scenario_specs())
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_honest_random_federations_raise_no_alerts(self, spec):
        stack = build_stack_from_spec(
            spec, drams_config=fast_drams_config())
        stack.start()
        stack.issue_requests(6)
        stack.run(until=25.0)
        assert len(stack.outcomes) == 6
        assert stack.drams.alerts.count() == 0, stack.drams.alerts.all()

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
    def test_corpus_replays_without_alerts(self, path):
        """Each shrunk failure the random search found stays fixed."""
        entry = json.loads(path.read_text())
        stack = build_stack_from_spec(
            spec_from_json(json.dumps(entry["spec"])),
            seed=entry["seed"],
            drams_config=fast_drams_config(),
        )
        stack.start()
        stack.issue_requests(entry["requests"])
        stack.run(until=entry["until"])
        assert len(stack.outcomes) == entry["requests"]
        assert stack.drams.alerts.count() == 0, stack.drams.alerts.all()
        assert stack.fingerprint()["checked"] == entry["requests"]


# -- attack-mix completeness ---------------------------------------------------


#: Threat class → stack seed giving it traffic to act on (as in
#: test_threats, detection of traffic-dependent attacks like log-tamper
#: needs the tampered tenant to actually enforce mismatching decisions).
ATTACK_MIX = (
    ("request-tamper", 51),
    ("decision-tamper", 52),
    ("pdp-circumvention", 53),
    ("evaluation-tamper", 54),
    ("policy-swap", 55),
    ("log-tamper", 58),
    ("replay", 60),
)


class TestAttackMixCompleteness:
    def test_campaign_is_deterministic(self):
        names = tuple(name for name, _ in ATTACK_MIX)
        spec = dataclasses.replace(preset_spec("healthcare"), attacks=names)
        first = default_attacks(spec, seed=5)
        second = default_attacks(spec, seed=5)
        assert [type(a).__name__ for a in first] == [
            type(a).__name__ for a in second]
        assert len(first) == len(names)

    @pytest.mark.parametrize("attack_name,seed", ATTACK_MIX,
                             ids=[name for name, _ in ATTACK_MIX])
    def test_every_injected_class_is_detected(self, attack_name, seed):
        spec = dataclasses.replace(
            preset_spec("healthcare"), attacks=(attack_name,))
        (attack,) = default_attacks(spec, seed=5)
        stack = build_stack_from_spec(
            spec, seed=seed, drams_config=fast_drams_config())
        stack.start()
        adversary = Adversary(stack.drams)
        adversary.launch(attack, at=0.2)
        stack.issue_requests(8)
        if attack_name == "replay":
            # The replay envelope only fires when the attacker re-submits
            # it; capture during the run, replay mid-stream.
            stack.sim.schedule(10.0, lambda: attack.replay_now(
                stack.drams, {"subject-id": "mallory",
                              "role": spec.roles[0]}))
        stack.run(until=40.0)
        record = adversary.records()[0]
        assert record.detected, f"{attack_name} went undetected"
        assert adversary.false_positives() == []
