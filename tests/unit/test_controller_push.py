"""The controller's push bookkeeping: what a failed or partial delivery leaves
in the controller fault log, for a deployment and for a churn push alike,
and what a later delivery that reaches the switch clears."""

import random

from repro.churn import ChurnDriver, PolicyAdd, SwitchDrain
from repro.fabric import FaultCode
from repro.faults import (
    make_switch_unresponsive,
    restore_switch,
)
from repro.workloads import three_tier_scenario, unresponsive_switch_scenario

UNREACHABLE = FaultCode.SWITCH_UNREACHABLE
DISRUPTED = FaultCode.CHANNEL_DISRUPTION
DEPLOY_FAILED = "deployment push failed: switch did not acknowledge instructions"
CHURN_FAILED = "churn push failed: switch did not acknowledge instructions"


def booked(controller):
    """The controller's own fault records, in emission order."""
    return [
        (record.raised_at, record.code, record.device_uid, record.detail)
        for record in controller.fault_log.records()
    ]


def drained_driver(drain_seed):
    """A small-profile driver whose first event drains a leaf for one event."""
    driver = ChurnDriver.for_workload("small", events=20, seed=4)
    drain = driver.apply(SwitchDrain(seq=1, draw_seed=drain_seed, duration_events=1))
    return driver, drain["switch"]


class TestWhatAPushBooks:
    def test_a_deployment_to_an_unresponsive_leaf(self):
        controller = three_tier_scenario().controller
        make_switch_unresponsive(controller, "leaf-2")
        reports = controller.deploy(record_initial_changes=False)
        assert booked(controller) == [(2, UNREACHABLE, "leaf-2", DEPLOY_FAILED)]
        assert controller.deployment_reports[-1] is reports

    def test_a_deployment_over_a_lossy_channel(self):
        controller = three_tier_scenario().controller
        controller.channel.drop_probability = 0.5
        controller.channel.rng = random.Random(5)
        controller.deploy(record_initial_changes=False)
        assert booked(controller) == [
            (2, DISRUPTED, "leaf-2", "4 instruction(s) were not applied"),
            (2, DISRUPTED, "leaf-3", "4 instruction(s) were not applied"),
        ]

    def test_a_churn_push_to_a_drained_leaf(self):
        driver, victim = drained_driver(drain_seed=2)
        assert victim == "leaf-1"
        deployments = len(driver.controller.deployment_reports)
        record = driver.apply(PolicyAdd(seq=2, rule_id=1, draw_seed=11))
        assert record["switches"] == ["leaf-1", "leaf-3"]
        assert booked(driver.controller) == [(106, UNREACHABLE, "leaf-1", CHURN_FAILED)]
        # Only a deployment is a deployment report.
        assert len(driver.controller.deployment_reports) == deployments

    def test_a_churn_push_over_a_lossy_channel(self):
        driver = ChurnDriver.for_workload("small", events=20, seed=4)
        driver.controller.channel.drop_probability = 0.5
        driver.controller.channel.rng = random.Random(3)
        driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        assert booked(driver.controller) == [
            (106, DISRUPTED, "leaf-1", "2 churn instruction(s) were not applied"),
            (106, DISRUPTED, "leaf-3", "4 churn instruction(s) were not applied"),
        ]


class TestADeliveryClears:
    def test_a_redeployment_that_reaches_the_leaf_clears_its_record(self):
        scenario = unresponsive_switch_scenario(extra_filters=2)
        controller = scenario.controller
        victim = scenario.facts["unresponsive_switch"]
        stale = [r for r in controller.fault_log if r.device_uid == victim]
        assert len(stale) == 2 and all(r.cleared_at is None for r in stale)
        restore_switch(controller, victim)
        controller.deploy(record_initial_changes=False)
        now = controller.clock.peek()
        assert all(record.cleared_at == now for record in stale)
        controller.clock.tick(5)
        now = controller.clock.peek()
        assert not any(r.is_active_at(now) for r in controller.fault_log)
        # Still active at every change made while the leaf was down.
        assert all(record.is_active_at(record.raised_at) for record in stale)

    def test_a_drain_ends_with_its_record_cleared(self):
        driver, victim = drained_driver(drain_seed=2)
        driver.apply(PolicyAdd(seq=2, rule_id=1, draw_seed=11))
        (record,) = [r for r in driver.controller.fault_log if r.device_uid == victim]
        assert record.cleared_at is None
        # The next event ends the drain: restore, then a resync that lands.
        resynced_at = driver.clock.peek()
        driver.apply(PolicyAdd(seq=3, rule_id=2, draw_seed=12))
        assert record.cleared_at == resynced_at
        now = driver.clock.peek()
        assert not any(r.is_active_at(now) for r in driver.controller.fault_log)

    def test_a_push_that_does_not_land_clears_nothing(self):
        controller = three_tier_scenario().controller
        make_switch_unresponsive(controller, "leaf-2")
        controller.deploy(record_initial_changes=False)
        controller.deploy(record_initial_changes=False)
        records = [r for r in controller.fault_log if r.device_uid == "leaf-2"]
        assert [record.cleared_at for record in records] == [None, None]
