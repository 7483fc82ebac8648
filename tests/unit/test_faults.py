"""Unit tests for fault injection: object faults, physical faults and the injector."""

import random

import pytest

from repro.exceptions import FaultInjectionError
from repro.fabric import AgentState, FaultCode
from repro.faults import (
    FaultInjector,
    FaultKind,
    inject_full_object_fault,
    inject_partial_object_fault,
    make_switch_unresponsive,
    restore_switch,
    rules_for_object,
)
from repro.policy.objects import ObjectType
from repro.protocol import DeliveryStatus
from repro.verify import EquivalenceChecker


def _check(controller):
    """The L-T check of every leaf the controller deployed to."""
    return EquivalenceChecker().check_network(
        controller.logical_rules(), controller.collect_deployed_rules()
    )


class TestObjectFaults:
    def test_rules_for_object_finds_deployed_rules(self, three_tier):
        target = three_tier.uids["filter_extra_0"]
        found = rules_for_object(three_tier.fabric, target)
        assert set(found) == {"leaf-2", "leaf-3"}
        assert all(target in rule.objects() for rules in found.values() for rule in rules)

    def test_the_provenance_scan_is_membership_in_objects(self, three_tier):
        """The scan reads the five provenance fields directly; it must find
        what ``uid in rule.objects()`` finds, in table order, and nothing
        for the empty uid (un-set provenance names no object)."""
        fabric = three_tier.fabric
        for uid in [*sorted(three_tier.uids.values()), "filter:webshop/ghost", ""]:
            expected = {}
            for switch_uid in fabric.leaf_uids():
                rules = fabric.switch(switch_uid).deployed_rules()
                matching = [rule for rule in rules if uid in rule.objects()]
                if matching:
                    expected[switch_uid] = matching
            assert rules_for_object(fabric, uid) == expected
        assert rules_for_object(fabric, "") == {}
        deployed = {
            uid
            for switch_uid in fabric.leaf_uids()
            for rule in fabric.switch(switch_uid).deployed_rules()
            for uid in rule.objects()
        }
        faultable = FaultInjector(three_tier.controller).faultable_objects()
        assert faultable == sorted(faultable) and set(faultable) <= deployed
        assert "" not in faultable

    def test_full_object_fault_removes_every_rule(self, three_tier):
        target = three_tier.uids["filter_extra_0"]
        before = three_tier.fabric.total_installed_rules()
        fault = inject_full_object_fault(three_tier.fabric, target)
        assert fault.kind is FaultKind.FULL
        assert fault.total_removed() == 4
        assert three_tier.fabric.total_installed_rules() == before - 4
        assert rules_for_object(three_tier.fabric, target) == {}

    def test_full_fault_respects_switch_scope(self, three_tier):
        target = three_tier.uids["filter_extra_0"]
        fault = inject_full_object_fault(three_tier.fabric, target, switches=["leaf-2"])
        assert fault.switches == ["leaf-2"]
        remaining = rules_for_object(three_tier.fabric, target)
        assert set(remaining) == {"leaf-3"}

    def test_partial_fault_keeps_at_least_one_rule(self, three_tier, rng):
        target = three_tier.uids["filter_extra_0"]
        fault = inject_partial_object_fault(three_tier.fabric, target, rng=rng)
        assert fault.kind is FaultKind.PARTIAL
        assert 1 <= fault.total_removed() <= 3
        assert rules_for_object(three_tier.fabric, target)  # something survives

    def test_fault_on_object_without_rules_rejected(self, three_tier):
        with pytest.raises(FaultInjectionError):
            inject_full_object_fault(three_tier.fabric, "filter:webshop/ghost")

    def test_injected_rules_show_up_as_missing(self, three_tier):
        target = three_tier.uids["filter_extra_0"]
        inject_full_object_fault(three_tier.fabric, target)
        checker = EquivalenceChecker()
        report = checker.check_network(
            three_tier.controller.logical_rules(),
            three_tier.controller.collect_deployed_rules(),
        )
        assert report.total_missing() == 4
        for rules in report.missing_rules().values():
            assert all(target in rule.objects() for rule in rules)


class TestPhysicalFaults:
    def test_make_switch_unresponsive_and_restore(self, three_tier):
        controller = three_tier.controller
        make_switch_unresponsive(controller, "leaf-2")
        switch = controller.fabric.switch("leaf-2")
        assert switch.agent.state is AgentState.UNRESPONSIVE
        assert not controller.channel.is_connected("leaf-2")
        assert any(r.code is FaultCode.SWITCH_UNREACHABLE for r in switch.fault_log)
        restore_switch(controller, "leaf-2")
        assert switch.agent.state is AgentState.RUNNING
        assert controller.channel.is_connected("leaf-2")

    def test_restore_switch_clears_the_switch_fault_records(self, three_tier):
        controller = three_tier.controller
        make_switch_unresponsive(controller, "leaf-2")
        switch = controller.fabric.switch("leaf-2")
        controller.clock.tick()
        restore_switch(controller, "leaf-2")
        now = controller.clock.peek()
        assert len(switch.fault_log) == 1
        assert not any(record.is_active_at(now) for record in switch.fault_log)

    def test_crash_agent_after(self, three_tier_undeployed):
        controller = three_tier_undeployed.controller
        switch = controller.fabric.switch("leaf-2")
        switch.agent.crash_after = 2
        reports = controller.deploy()
        assert reports["leaf-2"].status is DeliveryStatus.PARTIAL
        assert reports["leaf-2"].delivered == 2
        assert switch.agent.state is AgentState.CRASHED
        assert [r.code for r in switch.fault_log] == [FaultCode.AGENT_CRASH]
        assert [(r.device_uid, r.code) for r in controller.fault_log] == [
            ("leaf-2", FaultCode.CHANNEL_DISRUPTION)
        ]
        # A crashed agent never syncs: the whole of L is missing from T.
        report = _check(controller)
        assert report.switches_with_violations() == ["leaf-2"]
        assert report.results["leaf-2"].deployed_count == 0

    def test_a_restored_agent_redeploys_cleanly_after_a_crash(self, three_tier_undeployed):
        controller = three_tier_undeployed.controller
        controller.fabric.switch("leaf-2").agent.crash_after = 2
        controller.deploy()
        restore_switch(controller, "leaf-2")
        reports = controller.deploy(record_initial_changes=False)
        assert {report.status for report in reports.values()} == {DeliveryStatus.DELIVERED}
        assert _check(controller).equivalent

    def test_corruption_creates_missing_rules(self, three_tier):
        """A rule lost from the TCAM (corruption, §II-B) is missing from T
        and nothing in any fault log says so: only the L-T check sees it."""
        controller = three_tier.controller
        tcam = controller.fabric.switch("leaf-2").tcam
        target = three_tier.uids["filter_extra_0"]
        lost = tcam.remove_where(lambda rule: target in rule.objects())
        assert lost
        report = _check(controller)
        assert report.switches_with_violations() == ["leaf-2"]
        assert sorted(report.results["leaf-2"].missing_rules, key=str) == sorted(lost, key=str)
        assert controller.all_fault_records() == []

    def test_shrink_tcam_capacity(self, three_tier_undeployed):
        controller = three_tier_undeployed.controller
        switch = controller.fabric.switch("leaf-2")
        switch.tcam.capacity = 2
        reports = controller.deploy()
        # The agent took every instruction; the TCAM could not hold the render.
        assert reports["leaf-2"].status is DeliveryStatus.DELIVERED
        assert len(switch.deployed_rules()) == 2
        assert [r.code for r in switch.fault_log] == [FaultCode.TCAM_OVERFLOW]
        report = _check(controller)
        assert report.switches_with_violations() == ["leaf-2"]
        assert report.results["leaf-2"].missing_count() == report.results["leaf-2"].logical_count - 2

    def test_disrupt_control_channel(self, three_tier_undeployed):
        controller = three_tier_undeployed.controller
        controller.channel.drop_probability = 1.0
        reports = controller.deploy()
        assert {report.status for report in reports.values()} == {DeliveryStatus.UNREACHABLE}
        # Lost in transit: the agents still run, the controller books the loss.
        assert all(
            controller.fabric.switch(uid).agent.state is AgentState.RUNNING for uid in reports
        )
        assert sorted((r.device_uid, r.code) for r in controller.fault_log) == [
            (uid, FaultCode.SWITCH_UNREACHABLE) for uid in sorted(reports)
        ]
        report = _check(controller)
        assert report.switches_with_violations() == sorted(reports)
        assert all(result.deployed_count == 0 for result in report.results.values())


class TestFaultInjector:
    def test_faultable_objects_excludes_endpoints(self, three_tier):
        injector = FaultInjector(three_tier.controller)
        candidates = injector.faultable_objects()
        assert candidates
        types = {three_tier.policy.get(uid).object_type for uid in candidates}
        assert ObjectType.ENDPOINT not in types

    def test_inject_object_fault_records_ground_truth_and_change(self, three_tier):
        injector = FaultInjector(three_tier.controller, rng=random.Random(5))
        target = three_tier.uids["filter_http"]
        before = len(three_tier.controller.change_log)
        fault = injector.inject_object_fault(target, kind=FaultKind.FULL)
        assert fault.object_uid == target
        assert injector.ground_truth() == {target}
        assert len(three_tier.controller.change_log) == before + 1
        latest = three_tier.controller.change_log.latest_for_object(target)
        assert latest.timestamp == fault.injected_at

    def test_inject_random_faults_distinct_objects(self, deployed_tiny):
        workload, controller = deployed_tiny
        injector = FaultInjector(controller, rng=random.Random(7))
        faults = injector.inject_random_faults(5)
        assert len(faults) == 5
        assert len(injector.ground_truth()) == 5

    def test_partial_falls_back_to_full_for_single_rule_objects(self, deployed_tiny):
        workload, controller = deployed_tiny
        injector = FaultInjector(controller, rng=random.Random(7))
        faults = injector.inject_random_faults(3, kinds=(FaultKind.PARTIAL,))
        # Every fault must have removed at least one rule regardless of kind.
        assert all(fault.total_removed() >= 1 for fault in faults)

    def test_too_many_faults_rejected(self, three_tier):
        injector = FaultInjector(three_tier.controller)
        with pytest.raises(FaultInjectionError):
            injector.inject_random_faults(100)

    def test_reset_clears_history(self, three_tier):
        injector = FaultInjector(three_tier.controller, rng=random.Random(1))
        injector.inject_object_fault(three_tier.uids["filter_http"])
        injector.reset()
        assert injector.ground_truth() == set()

    def test_random_faults_with_explicit_seed_ignore_injector_rng_state(self, tiny_profile):
        """The same seed draws the same batch however much the shared RNG drifted."""

        def run(burn_draws: int):
            from repro.controller import Controller
            from repro.workloads import generate_workload

            workload = generate_workload(tiny_profile)
            controller = Controller(workload.policy, workload.fabric)
            controller.deploy()
            injector = FaultInjector(controller)
            for _ in range(burn_draws):  # drift the injector's own RNG
                injector.rng.random()
            faults = injector.inject_random_faults(3, seed=42)
            return [(f.object_uid, f.kind, sorted(f.removed_rules)) for f in faults]

        assert run(burn_draws=0) == run(burn_draws=17)

    def test_random_faults_with_explicit_seed(self, deployed_tiny):
        workload, controller = deployed_tiny
        injector = FaultInjector(controller)
        faults = injector.inject_random_faults(2, seed=8)
        assert len(faults) == 2

    def test_inject_object_fault_accepts_explicit_rng(self, three_tier):
        injector = FaultInjector(three_tier.controller)
        target = three_tier.uids["filter_extra_0"]
        fault = injector.inject_object_fault(
            target, kind=FaultKind.PARTIAL, rng=random.Random(3)
        )
        assert fault.kind is FaultKind.PARTIAL
        assert fault.total_removed() >= 1
