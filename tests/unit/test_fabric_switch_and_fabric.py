"""Unit tests for the switch agent, switch TCAM sync and the Fabric container."""

import dataclasses

import pytest

from repro import Controller
from repro.clock import LogicalClock
from repro.exceptions import FabricError
from repro.fabric import AgentState, Fabric, FaultCode, Switch, SwitchRole, TcamTable
from repro.policy import three_tier_policy
from repro.policy.objects import FilterEntry
from repro.protocol import AttachEndpoint, Instruction, Operation
from repro.controller.compiler import build_instruction_batches, compile_logical_rules
from repro.policy.graph import PolicyIndex


@pytest.fixture
def web_setup():
    """Figure 1 policy with endpoints attached; instruction batches prebuilt."""
    builder, uids = three_tier_policy()
    builder.endpoint("EP1", uids["web"], switch="leaf-1")
    builder.endpoint("EP2", uids["app"], switch="leaf-2")
    builder.endpoint("EP3", uids["db"], switch="leaf-3")
    policy = builder.build()
    index = PolicyIndex(policy)
    batches = build_instruction_batches(policy, index=index)
    logical = compile_logical_rules(policy, index=index)
    return policy, uids, batches, logical


def _switch(uid="leaf-2", capacity=None) -> Switch:
    return Switch(uid=uid, role=SwitchRole.LEAF, tcam=TcamTable(capacity=capacity), clock=LogicalClock())


class TestSwitchAgent:
    def test_healthy_agent_renders_logical_rules(self, web_setup):
        _, _, batches, logical = web_setup
        for switch_uid, (instructions, attachments) in batches.items():
            switch = _switch(switch_uid)
            applied, dropped = switch.receive_deployment(instructions, attachments)
            assert dropped == 0
            assert applied == len(instructions)
            deployed_keys = {rule.match_key() for rule in switch.deployed_rules()}
            expected_keys = {rule.match_key() for rule in logical[switch_uid]}
            assert deployed_keys == expected_keys

    def test_figure2_rule_count_on_s2(self, web_setup):
        _, _, batches, logical = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.receive_deployment(instructions, attachments)
        # Figure 2: six allow rules at S2 (both directions of 80 on Web-App,
        # both directions of 80 and 700 on App-DB).
        assert len(switch.deployed_rules()) == 6

    def test_unresponsive_agent_drops_batch(self, web_setup):
        _, _, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.make_unresponsive()
        applied, dropped = switch.receive_deployment(instructions, attachments)
        assert applied == 0
        assert dropped == len(instructions)
        assert switch.deployed_rules() == []
        assert any(r.code is FaultCode.SWITCH_UNREACHABLE for r in switch.fault_log)

    def test_agent_crash_mid_batch_logs_fault_and_partial_state(self, web_setup):
        _, _, batches, logical = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.agent.crash_after = 3
        applied, dropped = switch.receive_deployment(instructions, attachments)
        assert applied == 3
        assert dropped == len(instructions) - 3
        assert switch.agent.state is AgentState.CRASHED
        assert any(r.code is FaultCode.AGENT_CRASH for r in switch.fault_log)
        # A crashed agent does not sync its TCAM at all in that round.
        assert len(switch.deployed_rules()) < len(logical["leaf-2"])

    def test_buggy_agent_drops_object_from_view(self, web_setup):
        _, uids, batches, logical = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.agent.buggy_dropped_objects.add(uids["filter_extra_0"])
        switch.receive_deployment(instructions, attachments)
        deployed_keys = {rule.match_key() for rule in switch.deployed_rules()}
        expected_missing = [
            rule for rule in logical["leaf-2"] if rule.filter_uid == uids["filter_extra_0"]
        ]
        assert expected_missing
        assert all(rule.match_key() not in deployed_keys for rule in expected_missing)

    def test_tcam_overflow_logged(self, web_setup):
        _, _, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2", capacity=3)
        switch.receive_deployment(instructions, attachments)
        assert len(switch.deployed_rules()) == 3
        assert any(r.code is FaultCode.TCAM_OVERFLOW for r in switch.fault_log)

    def test_restore_clears_state(self, web_setup):
        _, _, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.make_unresponsive()
        switch.restore()
        assert switch.agent.state is AgentState.RUNNING
        applied, _ = switch.receive_deployment(instructions, attachments)
        assert applied == len(instructions)

    def test_attachments_for_other_switch_ignored(self):
        switch = _switch("leaf-1")
        accepted = switch.agent.receive_attachments(
            [AttachEndpoint(endpoint_uid="e", epg_uid="g", switch_uid="leaf-9")]
        )
        assert accepted == 0

    def test_deploy_to_spine_rejected(self):
        spine = Switch(uid="spine-1", role=SwitchRole.SPINE, clock=LogicalClock())
        with pytest.raises(FabricError):
            spine.receive_deployment([], [])

    def test_sync_removes_stale_rules(self, web_setup):
        _, uids, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.receive_deployment(instructions, attachments)
        before = len(switch.deployed_rules())
        # Delete the port-700 filter from the logical view and re-sync.
        delete = Instruction(operation=Operation.DELETE,
                             obj=switch.agent.logical_view[uids["filter_extra_0"]])
        switch.receive_deployment([delete], [])
        assert len(switch.deployed_rules()) < before

    def test_an_edit_re_renders_only_the_units_it_touches(self, web_setup):
        _, uids, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.receive_deployment(instructions, attachments)
        agent = switch.agent
        # leaf-2 hosts App: one unit under Web-App, one under App-DB.
        assert (agent.units_rendered, agent.units_reused) == (2, 0)
        flt = agent.logical_view[uids["filter_extra_0"]]
        edited = dataclasses.replace(flt, entries=flt.entries + (FilterEntry("udp", 53),))
        switch.receive_deployment([Instruction(operation=Operation.MODIFY, obj=edited)], [])
        # Only App-DB uses the filter; Web-App's rules are reused as they were.
        assert (agent.units_rendered, agent.units_reused) == (3, 1)
        assert any(rule.port == 53 for rule in switch.deployed_rules())

    def test_a_resync_reinstalls_without_rendering(self, web_setup):
        _, uids, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        switch.receive_deployment(instructions, attachments)
        agent = switch.agent
        lost = switch.tcam.remove_where(lambda rule: rule.filter_uid == uids["filter_extra_0"])
        assert switch.sync_tcam() == {
            "installed": len(lost),
            "removed": 0,
            "rejected": 0,
            "evicted": 0,
        }
        assert len(lost) > 0 and (agent.units_rendered, agent.units_reused) == (2, 2)
        # The table holds the agent's own key objects: derived once, at render.
        desired = agent.desired_rules()
        assert sorted(map(id, switch.tcam.match_keys())) == sorted(map(id, desired))

    def test_reset_is_a_reboot(self, web_setup):
        _, uids, batches, _ = web_setup
        instructions, attachments = batches["leaf-2"]
        switch = _switch("leaf-2")
        agent = switch.agent
        agent.buggy_dropped_objects.add(uids["filter_extra_0"])
        switch.receive_deployment(instructions, attachments)
        agent.crash_after = 1
        switch.make_unresponsive(log=False)
        agent.reset()
        assert agent.logical_view == {} and agent.local_attachments == {}
        assert agent.state is AgentState.RUNNING and agent.crash_after is None
        # A bug is the agent's software, not its state: it survives a reboot.
        assert agent.buggy_dropped_objects == {uids["filter_extra_0"]}
        # Nothing of the render before the wipe is reused after it.
        switch.receive_deployment(instructions, attachments)
        assert (agent.units_rendered, agent.units_reused) == (4, 0)


class TestFabric:
    def test_fabric_creates_leaf_switches(self):
        fabric = Fabric(num_leaves=4, num_spines=2)
        assert len(fabric.leaf_uids()) == 4
        assert "leaf-1" in fabric
        assert fabric.switch("leaf-1").role is SwitchRole.LEAF

    def test_unknown_switch_raises(self):
        fabric = Fabric(num_leaves=2)
        with pytest.raises(FabricError):
            fabric.switch("leaf-99")

    def test_attach_endpoint_updates_policy(self):
        builder, uids = three_tier_policy()
        ep = builder.endpoint("EP1", uids["web"])
        policy = builder.build()
        fabric = Fabric(num_leaves=2)
        fabric.attach_endpoint(policy, ep, "leaf-1")
        assert policy.get(ep).switch_uid == "leaf-1"

    def test_attach_endpoint_moves_an_attached_endpoint(self):
        builder, uids = three_tier_policy()
        ep = builder.endpoint("EP1", uids["web"], switch="leaf-1")
        policy = builder.build()
        fabric = Fabric(num_leaves=2)
        fabric.attach_endpoint(policy, ep, "leaf-2")
        assert policy.get(ep).switch_uid == "leaf-2"
        assert [e.uid for e in policy.endpoints()] == [ep]

    def test_builder_placement_decides_which_leaves_take_rules(self):
        builder, uids = three_tier_policy()
        builder.endpoint("EP1", uids["web"], switch="leaf-1")
        builder.endpoint("EP2", uids["app"], switch="leaf-2")
        policy = builder.build()
        fabric = Fabric(num_leaves=3)
        reports = Controller(policy, fabric).deploy()
        # No DB endpoint anywhere: only the Web-App pair's leaves get a push.
        assert sorted(reports) == ["leaf-1", "leaf-2"]
        assert fabric.switch("leaf-1").deployed_rules()
        assert fabric.switch("leaf-2").deployed_rules()
        assert fabric.switch("leaf-3").deployed_rules() == []

    def test_attach_to_unknown_switch_rejected(self):
        builder, uids = three_tier_policy()
        ep = builder.endpoint("EP1", uids["web"])
        policy = builder.build()
        fabric = Fabric(num_leaves=2)
        with pytest.raises(FabricError):
            fabric.attach_endpoint(policy, ep, "leaf-77")

    def test_collect_tcam_and_fault_records(self, three_tier):
        fabric = three_tier.fabric
        collected = fabric.collect_tcam_rules()
        assert set(collected) == set(fabric.leaf_uids())
        assert fabric.total_installed_rules() == sum(len(rules) for rules in collected.values())
        assert fabric.fault_records() == []

    def test_summary_keys(self, three_tier):
        summary = three_tier.fabric.summary()
        assert {"leaves", "spines", "links", "installed_rules", "fault_records"} <= set(summary)
