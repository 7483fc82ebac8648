"""Unit tests for the SCOUT and SCORE localization algorithms and the hypothesis type."""

import pytest

from oracles import mark_edge_failed
from repro.controller.changelog import ChangeLog
from repro.core import (
    Hypothesis,
    HypothesisEntry,
    RecentChangeOracle,
    ScoreLocalizer,
    ScoutLocalizer,
    SelectionReason,
)
from repro.exceptions import LocalizationError
from repro.policy.objects import ObjectType
from repro.protocol import Operation
from repro.risk import RiskModel


def figure5_model() -> RiskModel:
    """The example of Figure 5: F2 fully failed, F3/C3 partially failed.

    C3 and F3 have additional healthy dependents so their hit ratio stays
    below 1 — the regime SCORE dismisses as noise and SCOUT's second stage
    resolves via the change log.
    """
    model = RiskModel("figure5")
    model.add_element("E1-E2", ["C1", "F1"])
    model.add_element("E2-E3", ["F1", "F2"])
    model.add_element("E3-E4", ["F2"])
    model.add_element("E4-E5", ["F2", "C2"])
    model.add_element("E5-E6", ["C2", "C3"])
    model.add_element("E6-E7", ["C3", "F3"])
    model.add_element("E7-E8", ["F3"])
    model.add_element("E8-E9", ["C3"])
    # F2's three dependents all fail (hit ratio 1); E6-E7 fails via C3/F3
    # which both keep a healthy dependent (hit ratio < 1).
    mark_edge_failed(model, "E2-E3", "F2")
    mark_edge_failed(model, "E2-E3", "F1")
    mark_edge_failed(model, "E3-E4", "F2")
    mark_edge_failed(model, "E4-E5", "F2")
    mark_edge_failed(model, "E6-E7", "C3")
    mark_edge_failed(model, "E6-E7", "F3")
    return model


def change_log_with(entries) -> ChangeLog:
    log = ChangeLog()
    for timestamp, uid in entries:
        log.record(timestamp, uid, ObjectType.FILTER, Operation.MODIFY)
    return log


class TestHypothesis:
    def test_add_and_membership(self):
        hypothesis = Hypothesis(algorithm="x")
        hypothesis.add(HypothesisEntry(risk="F2", reason=SelectionReason.HIT_AND_COVERAGE,
                                       explained={"a"}))
        assert "F2" in hypothesis
        assert len(hypothesis) == 1
        assert hypothesis.explained == {"a"}
        assert hypothesis.entry_for("F2") is not None
        assert hypothesis.entry_for("nope") is None

    def test_duplicate_add_keeps_single_entry(self):
        hypothesis = Hypothesis()
        for _ in range(2):
            hypothesis.add(HypothesisEntry(risk="F2", reason=SelectionReason.CHANGE_LOG))
        assert len(hypothesis.entries) == 1

    def test_merge(self):
        a = Hypothesis(algorithm="SCOUT")
        a.add(HypothesisEntry(risk="F1", reason=SelectionReason.HIT_AND_COVERAGE, explained={"x"}))
        a.unexplained = {"y"}
        b = Hypothesis(algorithm="SCOUT")
        b.add(HypothesisEntry(risk="F2", reason=SelectionReason.CHANGE_LOG, explained={"y"}))
        merged = a.merge(b)
        assert merged.objects() == {"F1", "F2"}
        assert merged.unexplained == set()

    def test_entry_for_keeps_the_first_reason(self):
        hypothesis = Hypothesis(algorithm="SCOUT")
        first = HypothesisEntry(risk="F1", reason=SelectionReason.HIT_AND_COVERAGE, explained={"a"})
        hypothesis.add(first)
        hypothesis.add(HypothesisEntry(risk="F1", reason=SelectionReason.CHANGE_LOG, explained={"b"}))
        assert hypothesis.entry_for("F1") is first
        assert hypothesis.entry_for("F9") is None
        # The later entry's observations still count as explained.
        assert hypothesis.explained == {"a", "b"}

    def test_describe(self):
        hypothesis = Hypothesis(algorithm="SCOUT")
        hypothesis.add(HypothesisEntry(risk="F1", reason=SelectionReason.HIT_AND_COVERAGE))
        hypothesis.add(HypothesisEntry(risk="F3", reason=SelectionReason.CHANGE_LOG))
        assert "SCOUT" in hypothesis.describe()


class TestScoreLocalizer:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(LocalizationError):
            ScoreLocalizer(hit_threshold=0.0)
        with pytest.raises(LocalizationError):
            ScoreLocalizer(hit_threshold=1.2)

    def test_empty_signature_returns_empty_hypothesis(self):
        model = RiskModel()
        model.add_element("a", ["r"])
        assert len(ScoreLocalizer().localize(model)) == 0

    def test_score_threshold_1_misses_partial_fault(self):
        model = figure5_model()
        hypothesis = ScoreLocalizer(hit_threshold=1.0).localize(model)
        assert "F2" in hypothesis
        # C3 and F3 have hit ratio 0.5 < 1: SCORE treats them as noise.
        assert "F3" not in hypothesis and "C3" not in hypothesis
        assert "E6-E7" in hypothesis.unexplained

    def test_score_lower_threshold_picks_partial_risk(self):
        model = figure5_model()
        hypothesis = ScoreLocalizer(hit_threshold=0.5).localize(model)
        assert "F2" in hypothesis
        assert hypothesis.objects() & {"F3", "C3"}

    def test_score_is_greedy_on_coverage(self):
        model = RiskModel()
        model.add_element("o1", ["big", "small1"])
        model.add_element("o2", ["big", "small2"])
        model.add_element("o3", ["big"])
        for element in ("o1", "o2", "o3"):
            model.mark_element_failed(element)
        hypothesis = ScoreLocalizer(hit_threshold=1.0).localize(model)
        assert hypothesis.entries[0].risk == "big"
        assert len(hypothesis) == 1

    def test_score_name(self):
        assert ScoreLocalizer(0.6).name == "SCORE-0.6"


class TestScoutLocalizer:
    def test_figure5_without_changelog(self):
        model = figure5_model()
        hypothesis = ScoutLocalizer().localize(model)
        assert "F2" in hypothesis
        # Without a change log the residual observation stays unexplained.
        assert hypothesis.unexplained == {"E6-E7"}

    def test_figure5_with_changelog_adds_f3(self):
        model = figure5_model()
        log = change_log_with([(5, "F1"), (98, "F3")])
        oracle = RecentChangeOracle(change_log=log, window=10, fallback_latest=False)
        hypothesis = ScoutLocalizer(change_oracle=oracle).localize(model)
        assert hypothesis.objects() >= {"F2", "F3"}
        assert "C3" not in hypothesis  # not recently changed
        assert hypothesis.unexplained == set()
        entry = hypothesis.entry_for("F3")
        assert entry.reason is SelectionReason.CHANGE_LOG

    def test_scout_handles_multiple_simultaneous_full_faults(self):
        model = RiskModel()
        model.add_element("a", ["X", "shared"])
        model.add_element("b", ["X", "shared"])
        model.add_element("c", ["Y", "shared"])
        model.add_element("d", ["shared"])
        for element in ("a", "b"):
            mark_edge_failed(model, element, "X")
        mark_edge_failed(model, "c", "Y")
        hypothesis = ScoutLocalizer().localize(model)
        assert hypothesis.objects() == {"X", "Y"}
        assert "shared" not in hypothesis  # element d is healthy

    def test_scout_prunes_before_recomputing_ratios(self):
        # After picking F2 (Figure 5), C2's only remaining dependent is E5-E6
        # which is healthy, so C2 must not enter the hypothesis.
        model = figure5_model()
        hypothesis = ScoutLocalizer().localize(model)
        assert "C2" not in hypothesis

    def test_scout_does_not_mutate_input_model(self):
        model = figure5_model()
        elements_before = set(model.elements())
        ScoutLocalizer().localize(model)
        assert set(model.elements()) == elements_before

    def test_empty_model(self):
        model = RiskModel()
        model.add_element("a", ["r"])
        hypothesis = ScoutLocalizer().localize(model)
        assert len(hypothesis) == 0
        assert hypothesis.unexplained == set()

    def test_explicit_failure_signature_subset(self):
        model = figure5_model()
        hypothesis = ScoutLocalizer().localize(model, failure_signature={"E3-E4"})
        assert "F2" in hypothesis


class TestRecentChangeOracle:
    def test_window_filters_old_changes(self):
        log = change_log_with([(10, "old"), (95, "fresh")])
        oracle = RecentChangeOracle(change_log=log, window=20, fallback_latest=False)
        assert oracle.recently_changed(["old", "fresh"]) == {"fresh"}

    def test_fallback_latest(self):
        log = change_log_with([(10, "older"), (20, "newer")])
        oracle = RecentChangeOracle(change_log=log, window=5, now=1000, fallback_latest=True)
        assert oracle.recently_changed(["older", "newer"]) == {"newer"}

    def test_no_candidates(self):
        log = change_log_with([(10, "a")])
        oracle = RecentChangeOracle(change_log=log, window=5)
        assert oracle.recently_changed([]) == set()
        assert oracle.recently_changed([("not", "a-string")]) == set()

    def test_explicit_now_reference(self):
        log = change_log_with([(10, "a"), (100, "b")])
        oracle = RecentChangeOracle(change_log=log, window=20, now=25, fallback_latest=False)
        assert oracle.recently_changed(["a", "b"]) == {"a"}
