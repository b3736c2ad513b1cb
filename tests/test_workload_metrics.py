"""Workload generation, scenarios, metrics utilities."""

import pytest

from repro.analysis.properties import check_completeness
from repro.analysis.semantics import evaluate_document
from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.metrics.detection import DetectionScorer
from repro.metrics.recorder import percentile
from repro.metrics.tables import format_table
from repro.threats.adversary import AttackRecord
from repro.workload.generator import RequestGenerator, WorkloadConfig
from repro.workload.scenarios import (
    SCENARIO_FACTORIES,
    diurnal_scenario,
    healthcare_scenario,
    ministry_scenario,
)


class TestWorkloadGenerator:
    def gen(self, seed=5, **overrides):
        config = WorkloadConfig(**overrides) if overrides else WorkloadConfig()
        return RequestGenerator(config, SeededRng(seed))

    def test_deterministic_under_seed(self):
        a = [r.subject["subject-id"] for r in self.gen(5).requests(20)]
        b = [r.subject["subject-id"] for r in self.gen(5).requests(20)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [r.at for r in self.gen(5).requests(20)]
        b = [r.at for r in self.gen(6).requests(20)]
        assert a != b

    def test_arrivals_strictly_increase(self):
        times = [r.at for r in self.gen().requests(50)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_arrival_rate_roughly_honoured(self):
        config = WorkloadConfig(arrival_rate=10.0)
        generator = RequestGenerator(config, SeededRng(7))
        times = [r.at for r in generator.requests(500)]
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(0.1, rel=0.2)

    def test_zipf_popularity_skew(self):
        generator = self.gen(resources=50)
        counts: dict[str, int] = {}
        for request in generator.requests(1000):
            rid = request.resource["resource-id"]
            counts[rid] = counts.get(rid, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] > 3 * ranked[len(ranked) // 2]

    def test_roles_respect_population(self):
        generator = self.gen()
        roles = {s["role"] for s in generator.subjects()}
        assert roles <= {"doctor", "nurse", "clerk"}

    def test_payload_padding(self):
        generator = self.gen(payload_padding_bytes=256)
        request = next(iter(generator.requests(1)))
        assert len(request.resource["padding"]) == 256

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            WorkloadConfig(subjects=0)
        with pytest.raises(ValidationError):
            WorkloadConfig(roles=("a",), role_weights=(0.5, 0.5))
        with pytest.raises(ValidationError):
            WorkloadConfig(arrival_rate=0)


class TestWorkloadGeneratorEdges:
    def test_flat_stream_rate_is_constant(self):
        generator = RequestGenerator(WorkloadConfig(arrival_rate=10.0), SeededRng(5))
        assert generator.arrival_rate_at(0.0) == 10.0
        assert generator.arrival_rate_at(123.4) == 10.0

    def test_diurnal_rate_at_period_boundaries(self):
        config = WorkloadConfig(arrival_rate=100.0, arrival_period=8.0,
                                arrival_trough=0.2)
        generator = RequestGenerator(config, SeededRng(5))
        assert generator.arrival_rate_at(0.0) == pytest.approx(100.0)
        assert generator.arrival_rate_at(4.0) == pytest.approx(20.0)  # trough
        assert generator.arrival_rate_at(8.0) == pytest.approx(100.0)  # peak again
        assert generator.arrival_rate_at(2.0) == pytest.approx(60.0)  # midpoint

    def test_diurnal_stream_is_denser_at_the_peak_than_the_trough(self):
        workload = diurnal_scenario().workload
        generator = RequestGenerator(workload, SeededRng(7))
        times = [request.at for request in generator.requests(900)]
        period = workload.arrival_period
        peak_window = sum(1 for t in times if t < period / 4)
        trough_window = sum(1 for t in times if 3 * period / 8 <= t < 5 * period / 8)
        assert peak_window > 2 * trough_window

    def test_diurnal_scenario_registered_ninth(self):
        names = [factory().name for factory in SCENARIO_FACTORIES]
        assert names[8] == "diurnal"

    def test_trough_validation(self):
        with pytest.raises(ValidationError, match="arrival_trough"):
            WorkloadConfig(arrival_period=5.0, arrival_trough=0.0)
        with pytest.raises(ValidationError, match="arrival_period"):
            WorkloadConfig(arrival_period=-1.0)

    def test_harmonics_multiply_envelopes(self):
        config = WorkloadConfig(arrival_rate=100.0, arrival_period=8.0,
                                arrival_trough=0.2,
                                arrival_harmonics=((4.0, 0.5),))
        generator = RequestGenerator(config, SeededRng(5))
        # At t=0 every envelope peaks; at t=2 the harmonic bottoms out
        # (half its 4s period) while the base is at its midpoint.
        assert generator.arrival_rate_at(0.0) == pytest.approx(100.0)
        assert generator.arrival_rate_at(2.0) == pytest.approx(60.0 * 0.5)

    def test_harmonics_validation(self):
        with pytest.raises(ValidationError):
            WorkloadConfig(arrival_harmonics=((0.0, 0.5),))
        with pytest.raises(ValidationError):
            WorkloadConfig(arrival_harmonics=((4.0, 0.0),))
        with pytest.raises(ValidationError):
            WorkloadConfig(arrival_harmonics=((4.0, 0.5, 1.0),))

    def test_single_resource_catalogue(self):
        config = WorkloadConfig(subjects=1, resources=1, zipf_skew=2.0)
        generator = RequestGenerator(config, SeededRng(5))
        seen = {r.resource["resource-id"] for r in generator.requests(20)}
        assert seen == {"resource-0"}

    def test_streaming_consumption_matches_materialised(self):
        """Pulling lazily from the iterator equals materialising it."""
        materialised = list(
            RequestGenerator(WorkloadConfig(), SeededRng(9)).requests(40))
        streamed = []
        stream = RequestGenerator(WorkloadConfig(), SeededRng(9)).requests(40)
        while True:
            request = next(stream, None)
            if request is None:
                break
            streamed.append(request)
        assert [(r.at, r.subject, r.resource, r.action) for r in streamed] == [
            (r.at, r.subject, r.resource, r.action) for r in materialised]

    def test_catalogues_expose_full_population(self):
        generator = RequestGenerator(
            WorkloadConfig(subjects=7, resources=11), SeededRng(5))
        assert len(generator.subjects()) == 7
        assert len(generator.resources()) == 11
        assert generator.subjects()[3]["subject-id"] == "subject-3"
        assert generator.resources()[10]["resource-id"] == "resource-10"


class TestScenarios:
    @pytest.mark.parametrize("scenario_factory", SCENARIO_FACTORIES)
    def test_policy_documents_parse_and_evaluate(self, scenario_factory):
        scenario = scenario_factory()
        request = {"subject": {"role": ["doctor"]},
                   "action": {"action-id": ["read"]},
                   "resource": {"type": ["medical-record"]}}
        decision = evaluate_document(scenario.policy_document, request)
        assert decision in ("Permit", "Deny", "NotApplicable", "Indeterminate")

    @pytest.mark.parametrize("scenario_factory", SCENARIO_FACTORIES)
    def test_scenarios_are_complete_over_their_domains(self, scenario_factory):
        scenario = scenario_factory()
        report = check_completeness(scenario.policy_document, scenario.domain)
        assert report.holds, report.counterexamples[:2]

    def test_healthcare_semantics_spotchecks(self):
        doc = healthcare_scenario().policy_document
        doctor_read = {"subject": {"role": ["doctor"]},
                       "action": {"action-id": ["read"]},
                       "resource": {"type": ["medical-record"]}}
        assert evaluate_document(doc, doctor_read) == "Permit"
        clerk_read = {"subject": {"role": ["clerk"]},
                      "action": {"action-id": ["read"]},
                      "resource": {"type": ["medical-record"]}}
        assert evaluate_document(doc, clerk_read) == "Deny"
        doctor_remote_write = {
            "subject": {"role": ["doctor"]},
            "action": {"action-id": ["write"]},
            "resource": {"type": ["medical-record"],
                         "owner-tenant": ["tenant-2"]},
            "environment": {"origin-tenant": ["tenant-1"]}}
        assert evaluate_document(doc, doctor_remote_write) == "Deny"
        doctor_home_write = {
            "subject": {"role": ["doctor"]},
            "action": {"action-id": ["write"]},
            "resource": {"type": ["medical-record"],
                         "owner-tenant": ["tenant-1"]},
            "environment": {"origin-tenant": ["tenant-1"]}}
        assert evaluate_document(doc, doctor_home_write) == "Permit"

    def test_ministry_clearance_gate(self):
        doc = ministry_scenario().policy_document
        low_clearance = {
            "subject": {"role": ["officer"], "clearance": [1]},
            "action": {"action-id": ["read"]},
            "resource": {"type": ["tax-document"], "sensitivity": [5]}}
        assert evaluate_document(doc, low_clearance) == "Deny"
        high_clearance = {
            "subject": {"role": ["officer"], "clearance": [5]},
            "action": {"action-id": ["read"]},
            "resource": {"type": ["tax-document"], "sensitivity": [1]}}
        assert evaluate_document(doc, high_clearance) == "Permit"

    def test_ministry_office_hours(self):
        doc = ministry_scenario().policy_document
        base = {"subject": {"role": ["auditor"]},
                "action": {"action-id": ["read"]},
                "resource": {"type": ["tax-document"]}}
        in_hours = dict(base, environment={"time-of-day": [10.0 * 3600]})
        after_hours = dict(base, environment={"time-of-day": [22.0 * 3600]})
        assert evaluate_document(doc, in_hours) == "Permit"
        assert evaluate_document(doc, after_hours) == "Deny"


class TestPercentile:
    def test_percentile_interpolates(self):
        assert percentile([0.0, 1.0], 0.5) == 0.5
        assert percentile([1.0], 0.9) == 1.0

    def test_percentile_validation(self):
        with pytest.raises(ValidationError):
            percentile([], 0.5)
        with pytest.raises(ValidationError):
            percentile([1.0], 2.0)


class TestDetectionScorer:
    def record(self, detected, latency=1.0):
        return AttackRecord(attack_name="a", injected_at=0.0,
                            expected_alerts=(), detected=detected,
                            detection_latency=latency if detected else None)

    def test_rates(self):
        scorer = DetectionScorer()
        scorer.add_all([self.record(True, 2.0), self.record(False)])
        summary = scorer.summary()
        assert summary.detection_rate == 0.5
        assert summary.mean_latency == 2.0

    def test_empty_scorer(self):
        summary = DetectionScorer().summary()
        assert summary.attacks == 0 and summary.detection_rate == 0.0
        assert summary.mean_latency is None

    def test_add_all_accumulates_across_calls(self):
        scorer = DetectionScorer()
        scorer.add_all([self.record(True, 1.0)], false_positives=1)
        scorer.add_all([self.record(True, 3.0), self.record(False)], false_positives=2)
        summary = scorer.summary()
        assert summary.attacks == 3 and summary.false_positives == 3
        assert summary.mean_latency == 2.0

    def test_false_positive_accumulation(self):
        scorer = DetectionScorer()
        scorer.add_all([self.record(True)], false_positives=3)
        assert scorer.summary().false_positives == 3


class TestTables:
    def test_alignment_and_headers(self):
        table = format_table([{"name": "a", "value": 1},
                              {"name": "longer", "value": 23}], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_missing_cells_dash(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "-" in table.splitlines()[-2]

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_floats_formatted(self):
        table = format_table([{"x": 0.123456}])
        assert "0.123" in table
