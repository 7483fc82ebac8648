"""Unit tests for the controller substrate: change log, compiler, channel, controller."""

import dataclasses
import random

import pytest

from oracles import missing_matches
from repro import ControlChannel, Controller, Fabric
from repro.controller.changelog import ChangeLog
from repro.controller.compiler import (
    build_instruction_batch_for_switch,
    build_instruction_batches,
    compile_logical_rules,
)
from repro.exceptions import DeploymentError
from repro.fabric import FaultCode
from repro.policy import three_tier_policy
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.protocol import DeliveryStatus, Operation


@pytest.fixture
def web_stack():
    builder, uids = three_tier_policy()
    ep1 = builder.endpoint("EP1", uids["web"])
    ep2 = builder.endpoint("EP2", uids["app"])
    ep3 = builder.endpoint("EP3", uids["db"])
    policy = builder.build()
    fabric = Fabric(num_leaves=3)
    for ep, leaf in zip((ep1, ep2, ep3), ("leaf-1", "leaf-2", "leaf-3")):
        fabric.attach_endpoint(policy, ep, leaf)
    return builder, uids, policy, fabric


class TestChangeLog:
    def test_record_and_query(self):
        log = ChangeLog()
        log.record(5, "epg:t/a", ObjectType.EPG, Operation.ADD)
        log.record(9, "epg:t/a", ObjectType.EPG, Operation.MODIFY)
        log.record(7, "filter:t/f", ObjectType.FILTER, Operation.ADD)
        assert len(log) == 3
        assert len(log.for_object("epg:t/a")) == 2
        assert log.latest_for_object("epg:t/a").timestamp == 9
        assert log.latest_for_object("missing") is None
        assert log.last_timestamp() == 9

    def test_within(self):
        log = ChangeLog()
        for t in (1, 5, 10):
            log.record(t, f"o{t}", ObjectType.FILTER, Operation.ADD)
        assert [r.object_uid for r in log.within(1, 5)] == ["o1", "o5"]

    def test_within_an_inverted_window_is_empty(self):
        log = ChangeLog()
        for t in (1, 5, 10):
            log.record(t, f"o{t}", ObjectType.FILTER, Operation.ADD)
        assert log.within(6, 4) == []
        assert [r.object_uid for r in log.within(5, 5)] == ["o5"]

    def test_recently_changed_objects_keep_their_latest_record(self):
        log = ChangeLog()
        log.record(3, "a", ObjectType.FILTER, Operation.ADD)
        log.record(7, "a", ObjectType.FILTER, Operation.MODIFY)
        log.record(8, "b", ObjectType.EPG, Operation.ADD)
        recent = log.recently_changed_objects(now=10, window=5)
        assert sorted(recent) == ["a", "b"]
        assert recent["a"].operation is Operation.MODIFY
        # The window's lower edge is inclusive: now - window = 5 misses a@3.
        assert log.recently_changed_objects(now=10, window=7)["a"].timestamp == 7

    def test_recently_changed_objects_window(self):
        log = ChangeLog()
        log.record(1, "old", ObjectType.FILTER, Operation.ADD)
        log.record(90, "fresh", ObjectType.FILTER, Operation.MODIFY)
        recent = log.recently_changed_objects(now=100, window=20)
        assert "fresh" in recent and "old" not in recent

    def test_empty_log(self):
        log = ChangeLog()
        assert log.last_timestamp() == 0
        assert log.records() == []


class TestCompiler:
    def test_logical_rules_match_figure2(self, web_stack):
        _, _, policy, _ = web_stack
        logical = compile_logical_rules(policy)
        assert len(logical["leaf-1"]) == 2
        assert len(logical["leaf-2"]) == 6
        assert len(logical["leaf-3"]) == 4

    def test_rules_carry_provenance(self, web_stack):
        _, uids, policy, _ = web_stack
        logical = compile_logical_rules(policy)
        for rule in logical["leaf-2"]:
            assert rule.vrf_uid == uids["vrf"]
            assert rule.contract_uid
            assert rule.filter_uid

    def test_instruction_batches_cover_needed_objects(self, web_stack):
        _, uids, policy, _ = web_stack
        batches = build_instruction_batches(policy)
        s1_objects = {instr.obj.uid for instr in batches["leaf-1"][0]}
        # S1 hosts only the Web endpoint but still needs EPG:App for the pair.
        assert uids["web"] in s1_objects
        assert uids["app"] in s1_objects
        assert uids["vrf"] in s1_objects
        assert uids["web_app_contract"] in s1_objects
        assert uids["app_db_contract"] not in s1_objects

    def test_scoped_batch_matches_full_builder(self, web_stack):
        _, _, policy, _ = web_stack
        full = build_instruction_batches(policy, issued_at=2)
        for switch_uid in full:
            scoped = build_instruction_batch_for_switch(
                policy, switch_uid, issued_at=2
            )
            assert scoped == full[switch_uid]
        # A switch the policy never touches gets an empty batch, not a crash.
        instructions, attachments = build_instruction_batch_for_switch(
            policy, "leaf-999", issued_at=2
        )
        assert instructions == [] and attachments == []

    def test_instruction_batches_deterministic_order(self, web_stack):
        _, _, policy, _ = web_stack
        first = build_instruction_batches(policy)
        second = build_instruction_batches(policy)
        for switch_uid in first:
            assert [i.obj.uid for i in first[switch_uid][0]] == [
                i.obj.uid for i in second[switch_uid][0]
            ]

    def test_attachments_only_for_local_endpoints(self, web_stack):
        _, _, policy, _ = web_stack
        batches = build_instruction_batches(policy)
        for switch_uid, (_, attachments) in batches.items():
            assert all(attach.switch_uid == switch_uid for attach in attachments)


class TestControlChannel:
    def test_disconnected_switch_unreachable(self, web_stack):
        _, _, policy, fabric = web_stack
        channel = ControlChannel(fabric)
        channel.disconnect("leaf-2")
        batches = build_instruction_batches(policy)
        report = channel.deliver("leaf-2", *batches["leaf-2"])
        assert report.status is DeliveryStatus.UNREACHABLE
        assert report.delivered == 0
        channel.reconnect("leaf-2")
        assert channel.is_connected("leaf-2")

    def test_lossy_channel_drops_instructions(self, web_stack):
        _, _, policy, fabric = web_stack
        channel = ControlChannel(fabric, drop_probability=1.0, rng=random.Random(1))
        batches = build_instruction_batches(policy)
        report = channel.deliver("leaf-2", *batches["leaf-2"])
        assert report.delivered == 0
        assert report.dropped == len(batches["leaf-2"][0])

    def test_invalid_drop_probability_rejected(self, web_stack):
        _, _, _, fabric = web_stack
        with pytest.raises(ValueError):
            ControlChannel(fabric, drop_probability=1.5)


class TestController:
    def test_deploy_is_consistent(self, web_stack):
        _, _, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        reports = controller.deploy()
        assert all(r.status is DeliveryStatus.DELIVERED for r in reports.values())
        logical = controller.logical_rules()
        deployed = controller.collect_deployed_rules()
        for switch_uid, rules in logical.items():
            assert missing_matches(rules, deployed[switch_uid]) == []

    def test_initial_changes_recorded_once(self, web_stack):
        _, _, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        controller.deploy()
        first = len(controller.change_log)
        controller.deploy()
        assert len(controller.change_log) == first

    def test_deploy_unreachable_switch_logs_fault(self, web_stack):
        _, _, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        controller.channel.disconnect("leaf-3")
        reports = controller.deploy()
        assert reports["leaf-3"].status is DeliveryStatus.UNREACHABLE
        assert any(r.code is FaultCode.SWITCH_UNREACHABLE for r in controller.fault_log)

    def test_add_and_modify_object_records_changes(self, web_stack):
        builder, uids, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        controller.deploy()
        tenant = builder.tenant.name
        flt = Filter(uid=f"filter:{tenant}/extra", name="extra",
                     entries=(FilterEntry("tcp", 8443),))
        controller.add_object(tenant, flt)
        assert flt.uid in policy
        records = controller.change_log.for_object(flt.uid)
        assert len(records) == 1 and records[0].operation is Operation.ADD
        controller.modify_object(tenant, flt, detail="touch")
        assert controller.change_log.latest_for_object(flt.uid).operation is Operation.MODIFY
        controller.delete_object(tenant, flt)
        assert flt.uid not in policy

    def test_add_filter_to_contract(self, web_stack):
        """A contract modified to carry one more filter deploys its rules on
        every leaf hosting one of its EPGs, and the change is logged."""
        builder, uids, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        controller.deploy()
        tenant = builder.tenant.name
        extra = Filter(uid=f"filter:{tenant}/port9999", name="port9999",
                       entries=(FilterEntry("tcp", 9999),))
        controller.add_object(tenant, extra)
        contract = policy.get(uids["app_db_contract"])
        grown = dataclasses.replace(contract, filter_uids=(*contract.filter_uids, extra.uid))
        controller.modify_object(tenant, grown)
        controller.deploy(record_initial_changes=False)
        carrying = {
            uid
            for uid in fabric.leaf_uids()
            for rule in fabric.switch(uid).deployed_rules()
            if extra.uid in rule.objects()
        }
        assert carrying == {"leaf-2", "leaf-3"}
        assert controller.change_log.latest_for_object(contract.uid).operation is Operation.MODIFY
        deployed = controller.collect_deployed_rules()
        for uid, logical in controller.logical_rules().items():
            assert missing_matches(logical, deployed[uid]) == []

    def test_modify_unknown_object_rejected(self, web_stack):
        builder, _, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        ghost = Filter(uid="filter:webshop/ghost", name="ghost",
                       entries=(FilterEntry("tcp", 1),))
        with pytest.raises(DeploymentError):
            controller.modify_object(builder.tenant.name, ghost)

    def test_deploy_without_attachment_rejected(self):
        builder, _ = three_tier_policy()
        policy = builder.build()
        fabric = Fabric(num_leaves=2)
        controller = Controller(policy, fabric)
        with pytest.raises(DeploymentError):
            controller.deploy()

    def test_summary_fields(self, web_stack):
        _, _, policy, fabric = web_stack
        controller = Controller(policy, fabric)
        controller.deploy()
        summary = controller.summary()
        assert summary["epgs"] == 3 and summary["epg_pairs"] == 2
        assert summary["deployments"] == 1
        assert summary["change_records"] == len(controller.change_log)
