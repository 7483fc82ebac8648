"""Integration tests for the paper's §V-B use cases, end to end through ScoutSystem."""

import pytest

from repro.core import ScoutSystem
from repro.fabric import FaultCode
from repro.workloads import (
    large_unresponsive_switch_scenario,
    tcam_overflow_scenario,
    unresponsive_switch_scenario,
)
from repro.workloads.profiles import WorkloadProfile


class TestTcamOverflowUseCase:
    @pytest.fixture(scope="class")
    def report(self):
        scenario = tcam_overflow_scenario(tcam_capacity=10, extra_filters=10)
        system = ScoutSystem(scenario.controller)
        return scenario, system.localize(scope="controller")

    def test_missing_rules_detected(self, report):
        _, result = report
        assert not result.consistent
        assert result.equivalence.total_missing() > 0

    def test_faulty_filters_localized(self, report):
        scenario, result = report
        added = set(scenario.facts["added_filters"])
        faulty = result.faulty_objects()
        # At least some of the dynamically added filters are blamed.
        assert added & faulty

    def test_root_cause_is_tcam_overflow(self, report):
        scenario, result = report
        assert result.correlation is not None
        causes = result.correlation.root_causes()
        assert "tcam-overflow" in causes
        # The blamed objects include dynamically added filters.
        overflow_objects = set(causes["tcam-overflow"])
        assert overflow_objects & set(scenario.facts["added_filters"])


class TestUnresponsiveSwitchUseCase:
    @pytest.fixture(scope="class")
    def report(self):
        scenario = unresponsive_switch_scenario(extra_filters=5)
        system = ScoutSystem(scenario.controller)
        return scenario, system.localize(scope="controller")

    def test_violations_confined_to_victim(self, report):
        scenario, result = report
        assert result.equivalence.switches_with_violations() == [
            scenario.facts["unresponsive_switch"]
        ]

    def test_late_filters_localized(self, report):
        scenario, result = report
        assert set(scenario.facts["added_filters"]) & result.faulty_objects()

    def test_root_cause_is_unresponsive_switch(self, report):
        _, result = report
        assert result.correlation is not None
        assert "unresponsive-switch" in result.correlation.root_causes()

    def test_controller_observed_the_outage(self, report):
        scenario, _ = report
        assert any(r.code is FaultCode.SWITCH_UNREACHABLE for r in scenario.controller.fault_log)


class TestTooManyMissingRulesUseCase:
    @pytest.fixture(scope="class")
    def report(self):
        profile = WorkloadProfile(
            name="usecase3", num_leaves=6, num_spines=2, num_vrfs=2, num_epgs=40,
            num_contracts=30, num_filters=12, target_pairs=250, seed=21,
        )
        scenario = large_unresponsive_switch_scenario(profile=profile)
        system = ScoutSystem(scenario.controller, include_switch_risks=True)
        return scenario, system.localize(scope="controller")

    def test_many_missing_rules_collapse_to_small_hypothesis(self, report):
        _, result = report
        missing = result.equivalence.total_missing()
        assert missing > 50
        assert len(result.faulty_objects()) < missing / 5

    def test_unresponsive_switch_named_as_root_cause(self, report):
        scenario, result = report
        victim = scenario.facts["unresponsive_switch"]
        # The victim switch itself is a shared risk of every failed triplet and
        # must surface in the hypothesis (use case 3: SCOUT "reported the
        # unresponsive switch as the root cause").
        assert victim in result.faulty_objects()
        assert result.correlation is not None
        assert "unresponsive-switch" in result.correlation.root_causes()
