"""Unit tests for metrics, the event correlation engine and the ScoutSystem pipeline."""

import random

import pytest

from oracles import mark_edge_failed
from repro.controller.changelog import ChangeLog
from repro.core import (
    EventCorrelationEngine,
    FaultSignature,
    Hypothesis,
    HypothesisEntry,
    ScoutSystem,
    SelectionReason,
    accuracy,
    bin_by_suspect_count,
    default_signatures,
    f1_score,
    precision,
    recall,
    suspect_set_reduction,
)
from repro.fabric.faultlog import FaultCode, FaultRecord
from repro.faults import FaultInjector, FaultKind, make_switch_unresponsive
from repro.policy.objects import ObjectType
from repro.protocol import Operation
from repro.risk import RiskModel
from repro.workloads import three_tier_scenario


class TestMetrics:
    def test_precision_recall_basic(self):
        truth = {"a", "b"}
        hypo = {"a", "c"}
        assert precision(truth, hypo) == 0.5
        assert recall(truth, hypo) == 0.5
        assert 0 < f1_score(truth, hypo) <= 1

    def test_perfect_and_empty_cases(self):
        assert precision({"a"}, {"a"}) == 1.0
        assert recall({"a"}, {"a"}) == 1.0
        assert precision(set(), set()) == 1.0
        assert recall(set(), set()) == 1.0
        assert precision({"a"}, set()) == 0.0
        assert recall(set(), {"a"}) == 1.0
        assert f1_score({"a"}, {"b"}) == 0.0

    def test_accuracy_bundle(self):
        result = accuracy({"a", "b", "c"}, {"a", "b", "x"})
        assert result.true_positives == 2
        assert result.false_positives == 1
        assert result.false_negatives == 1
        assert result.hypothesis_size == 3

    def test_accuracy_accepts_hypothesis_object(self):
        hypothesis = Hypothesis()
        hypothesis.add(HypothesisEntry(risk="a", reason=SelectionReason.HIT_AND_COVERAGE))
        result = accuracy({"a"}, hypothesis)
        assert result.precision == 1.0 and result.recall == 1.0

    def test_suspect_set_reduction(self):
        model = RiskModel()
        model.add_element("p1", ["a", "b", "c", "d"])
        model.add_element("p2", ["e", "f"])
        mark_edge_failed(model, "p1", "a")
        assert suspect_set_reduction(model, {"a"}) == 0.25
        assert suspect_set_reduction(RiskModel(), {"a"}) == 0.0

    def test_bin_by_suspect_count(self):
        samples = [(5, 0.2), (8, 0.4), (30, 0.1)]
        binned = bin_by_suspect_count(samples, [(1, 10), (11, 40)])
        assert binned["1-10"]["samples"] == 2
        assert binned["1-10"]["mean_gamma"] == pytest.approx(0.3)
        assert binned["11-40"]["max_gamma"] == pytest.approx(0.1)


class TestEventCorrelationEngine:
    def _change_log(self, uid="filter:t/f", timestamp=50):
        log = ChangeLog()
        log.record(timestamp, uid, ObjectType.FILTER, Operation.MODIFY)
        return log

    def test_matches_signature_for_active_fault(self):
        engine = EventCorrelationEngine()
        faults = [FaultRecord(raised_at=40, device_uid="leaf-2", code=FaultCode.TCAM_OVERFLOW)]
        report = engine.correlate(["filter:t/f"], self._change_log(), faults)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.root_cause == "tcam-overflow"
        assert finding.is_known
        assert report.known() and not report.unknown()

    def test_unknown_when_no_fault_matches(self):
        engine = EventCorrelationEngine()
        report = engine.correlate(["filter:t/f"], self._change_log(), [])
        assert report.findings[0].root_cause == "unknown"
        assert not report.findings[0].is_known

    def test_fault_cleared_before_change_not_matched(self):
        engine = EventCorrelationEngine(lookback_window=0)
        fault = FaultRecord(raised_at=10, device_uid="leaf-2", code=FaultCode.AGENT_CRASH,
                            cleared_at=20)
        report = engine.correlate(["filter:t/f"], self._change_log(timestamp=50), [fault])
        assert report.findings[0].root_cause == "unknown"

    def test_relevant_devices_restriction(self):
        engine = EventCorrelationEngine()
        faults = [FaultRecord(raised_at=40, device_uid="leaf-9", code=FaultCode.TCAM_OVERFLOW)]
        report = engine.correlate(
            ["filter:t/f"], self._change_log(), faults,
            relevant_devices={"filter:t/f": ["leaf-2"]},
        )
        assert report.findings[0].root_cause == "unknown"

    def test_object_without_changes_uses_active_faults(self):
        engine = EventCorrelationEngine()
        faults = [FaultRecord(raised_at=40, device_uid="leaf-2", code=FaultCode.TCAM_CORRUPTION)]
        report = engine.correlate(["filter:t/f"], ChangeLog(), faults)
        assert report.findings[0].root_cause == "tcam-corruption"

    def test_custom_signature_catalogue(self):
        engine = EventCorrelationEngine(signatures=[FaultSignature(
            name="anything", description="match all", matcher=lambda record: True)])
        faults = [FaultRecord(raised_at=1, device_uid="x", code=FaultCode.UNKNOWN)]
        report = engine.correlate(["o"], ChangeLog(), faults)
        assert report.findings[0].root_cause == "anything"

    def test_default_signature_catalogue_covers_fault_codes(self):
        names = {signature.name for signature in default_signatures()}
        assert {"tcam-overflow", "unresponsive-switch", "agent-crash"} <= names

    def test_root_causes_grouping(self):
        engine = EventCorrelationEngine()
        faults = [FaultRecord(raised_at=1, device_uid="leaf-1", code=FaultCode.TCAM_OVERFLOW)]
        log = ChangeLog()
        for uid in ("a", "b"):
            log.record(5, uid, ObjectType.FILTER, Operation.MODIFY)
        report = engine.correlate(["a", "b"], log, faults)
        assert set(report.root_causes()["tcam-overflow"]) == {"a", "b"}
        assert "tcam-overflow" in report.describe()


class TestScoutSystem:
    def test_consistent_deployment_yields_empty_hypothesis(self, three_tier):
        system = ScoutSystem(three_tier.controller)
        report = system.localize(scope="controller")
        assert report.consistent
        assert report.faulty_objects() == set()
        assert report.suspect_reduction() == 0.0

    def test_injected_fault_is_localized_controller_scope(self, three_tier):
        injector = FaultInjector(three_tier.controller, rng=random.Random(3))
        target = three_tier.uids["filter_extra_0"]
        injector.inject_object_fault(target, kind=FaultKind.FULL)
        system = ScoutSystem(three_tier.controller)
        report = system.localize(scope="controller")
        assert not report.consistent
        assert target in report.faulty_objects()
        assert report.equivalence.total_missing() == 4
        assert 0 < report.suspect_reduction() <= 1

    def test_switch_scope_produces_per_switch_hypotheses(self, three_tier):
        injector = FaultInjector(three_tier.controller, rng=random.Random(3))
        target = three_tier.uids["filter_extra_0"]
        injector.inject_object_fault(target, kind=FaultKind.FULL, switches=["leaf-2"])
        system = ScoutSystem(three_tier.controller)
        report = system.localize(scope="switch")
        assert set(report.per_switch) == {"leaf-2"}
        assert target in report.per_switch["leaf-2"].objects()
        assert target in report.faulty_objects()

    def test_unresponsive_switch_root_cause(self):
        scenario = three_tier_scenario(deploy=False)
        make_switch_unresponsive(scenario.controller, "leaf-2")
        scenario.controller.deploy()
        system = ScoutSystem(scenario.controller)
        report = system.localize(scope="controller")
        assert not report.consistent
        assert report.correlation is not None
        causes = report.correlation.root_causes()
        assert "unresponsive-switch" in causes
        assert "leaf-2" in report.describe() or report.faulty_objects()

    def test_report_describe_is_textual(self, three_tier):
        system = ScoutSystem(three_tier.controller)
        report = system.localize()
        assert "SCOUT report" in report.describe()
