"""Unit tests for the churn driver and its differential oracle."""

import dataclasses

import pytest

from repro.churn import (
    Checkpoint,
    ChurnDriver,
    FaultBurst,
    LinkFlap,
    PolicyAdd,
    PolicyModify,
    PolicyRemove,
    SwitchDrain,
    SwitchReboot,
    churn_profile_for,
)
from repro.controller.compiler import CompiledRules
from repro.exceptions import ChurnDivergenceError
from repro.obs import FlightRecorder, recording
from repro.online import NetworkMonitor
from repro.policy.objects import FilterEntry


@pytest.fixture
def driver() -> ChurnDriver:
    return ChurnDriver.for_workload("small", events=20, seed=4)


class TestPolicyChurn:
    def test_add_creates_rule_and_stays_consistent(self, driver):
        record = driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        assert record["event"] == "policy-add"
        contract_uid = record["contract"]
        assert contract_uid in driver.controller.policy
        driver.clock.tick()
        driver.monitor.poll()
        assert driver.checkpoint(seq=2).ok

    def test_add_rules_actually_reach_the_tcams(self, driver):
        before = driver.controller.fabric.total_installed_rules()
        driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        assert driver.controller.fabric.total_installed_rules() > before

    def test_modify_without_rules_is_a_deterministic_skip(self, driver):
        record = driver.apply(PolicyModify(seq=1, draw_seed=5))
        assert record["skipped"] == "no churn rule to modify"

    def test_modify_takes_the_index_patch_fast_path(self, driver):
        driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        driver.clock.tick()
        driver.monitor.poll()
        before = driver.monitor.stats()
        derived_before = driver.controller.compile_stats()["patches"]
        driver.apply(PolicyModify(seq=2, draw_seed=12))
        driver.clock.tick()
        driver.monitor.poll()
        # A filter modify is payload-only: the poll's compile request made
        # the controller derive its index, not re-build it.
        after = driver.monitor.stats()
        assert after["index_patches"] == before["index_patches"] + 1
        assert after["index_rebuilds"] == before["index_rebuilds"]
        assert driver.controller.compile_stats()["patches"] == derived_before + 1
        assert driver.checkpoint(seq=3).ok

    def test_remove_round_trips_to_the_original_state(self, driver):
        baseline = driver.system.check().semantic_fingerprint()
        driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        driver.clock.tick()
        driver.monitor.poll()
        added = driver.system.check().semantic_fingerprint()
        assert added != baseline
        driver.apply(PolicyRemove(seq=2, draw_seed=12))
        driver.clock.tick()
        driver.monitor.poll()
        record = driver.checkpoint(seq=3)
        assert record.ok
        assert record.full_fingerprint == baseline

    def test_removed_objects_leave_the_policy(self, driver):
        add = driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        driver.apply(PolicyRemove(seq=2, draw_seed=3))
        assert add["contract"] not in driver.controller.policy


class TestMultiTenant:
    def test_policy_churn_routes_to_the_owning_tenant(self):
        """A two-tenant policy churns without misrouting mutations."""
        from repro import Controller, Fabric, NetworkPolicy, PolicyBuilder
        from repro.churn import churn_profile_for

        tenants = []
        endpoints = []
        for name in ("acme", "globex"):
            builder = PolicyBuilder(tenant=name)
            vrf = builder.vrf("prod", scope_id=101 if name == "acme" else 202)
            web = builder.epg("Web", vrf=vrf)
            app = builder.epg("App", vrf=vrf)
            builder.allow(web, app, entries=[("tcp", 80)])
            endpoints.append(builder.endpoint("ep-w", web, ip="10.0.0.1"))
            endpoints.append(builder.endpoint("ep-a", app, ip="10.0.0.2"))
            tenants.append(builder.tenant)
        policy = NetworkPolicy(tenants)
        fabric = Fabric(num_leaves=2)
        for i, endpoint_uid in enumerate(endpoints):
            fabric.attach_endpoint(policy, endpoint_uid, f"leaf-{i % 2 + 1}")
        controller = Controller(policy, fabric)
        controller.deploy()
        controller.clock.tick(101)

        driver = ChurnDriver(controller, churn_profile_for("small", events=8))
        tenants_hit = set()
        for seq, draw_seed in enumerate((1, 2, 3, 4, 5, 6), start=1):
            record = driver.apply(PolicyAdd(seq=seq, rule_id=seq, draw_seed=draw_seed))
            tenants_hit.add(record["contract"].split(":")[1].split("/")[0])
            driver.clock.tick()
            driver.monitor.poll()
        assert tenants_hit == {"acme", "globex"}
        driver.apply(PolicyRemove(seq=7, draw_seed=9))
        driver.clock.tick()
        driver.monitor.poll()
        assert driver.checkpoint(seq=8).ok


class TestTopologyChurn:
    def test_flap_logs_fault_and_recovers(self, driver):
        record = driver.apply(LinkFlap(seq=1, draw_seed=7, down_ticks=2))
        victim = record["switch"]
        driver.clock.tick()
        driver.monitor.poll()
        assert driver.checkpoint(seq=2).ok
        codes = {r.code.value for r in driver.controller.fabric.fault_records()}
        assert "switch-unreachable" in codes
        agent = driver.controller.fabric.switch(victim).agent
        assert agent.state.value == "running"

    def test_reboot_wipes_and_resyncs(self, driver):
        record = driver.apply(SwitchReboot(seq=1, draw_seed=9))
        assert record["rules_lost"] > 0
        switch = driver.controller.fabric.switch(record["switch"])
        assert len(switch.tcam) > 0  # resync reinstalled
        driver.clock.tick()
        driver.monitor.poll()
        assert driver.checkpoint(seq=2).ok

    def test_drained_switch_misses_pushes_until_restored(self, driver):
        drain = driver.apply(SwitchDrain(seq=1, draw_seed=1, duration_events=2))
        victim = drain["switch"]
        assert victim in driver._drained
        driver.clock.tick()
        driver.monitor.poll()
        # Checkpoints are observation-only: they never consume drain lifetime.
        driver.apply(Checkpoint(seq=2))
        driver.apply(Checkpoint(seq=3))
        assert victim in driver._drained
        # Two churn events exhaust the drain; the third restores + resyncs.
        driver.apply(PolicyAdd(seq=4, rule_id=1, draw_seed=11))
        driver.apply(PolicyAdd(seq=5, rule_id=2, draw_seed=12))
        assert victim in driver._drained
        driver.apply(PolicyAdd(seq=6, rule_id=3, draw_seed=13))
        assert victim not in driver._drained
        driver.clock.tick()
        driver.monitor.poll()
        assert driver.checkpoint(seq=7).ok

    def test_checkpoint_cadence_does_not_change_behavior(self):
        """Same stream, denser checkpoints ⇒ same fabric state and verdicts."""
        sparse = ChurnDriver.for_workload(
            "small", events=40, seed=13, checkpoint_interval=20
        ).run()
        dense = ChurnDriver.for_workload(
            "small", events=40, seed=13, checkpoint_interval=5
        ).run()
        assert sparse.final_fingerprint == dense.final_fingerprint
        assert sparse.ground_truth == dense.ground_truth
        assert sparse.counts == dense.counts


class TestFaultChurn:
    def test_faults_open_incidents_and_track_ground_truth(self, driver):
        record = driver.apply(FaultBurst(seq=1, draw_seed=21, count=2))
        assert record["objects"]
        driver.clock.tick()
        driver.monitor.poll()
        checkpoint = driver.checkpoint(seq=2)
        assert checkpoint.ok
        assert checkpoint.violating_switches  # faults visible
        assert checkpoint.violating_switches == checkpoint.incident_switches
        assert driver.effective_ground_truth() == record["objects"]

    def test_policy_push_to_faulted_switch_repairs_it(self, driver):
        fault = driver.apply(FaultBurst(seq=1, draw_seed=21, count=1))
        driver.clock.tick()
        driver.monitor.poll()
        assert driver.effective_ground_truth()
        # A full resync of every faulted switch re-installs the missing rules.
        for switch_uid in fault["switches"]:
            driver._resync(switch_uid)
        driver.clock.tick()
        driver.monitor.poll()
        checkpoint = driver.checkpoint(seq=2)
        assert checkpoint.ok
        assert not checkpoint.violating_switches
        assert driver.effective_ground_truth() == []


class TestOracle:
    def test_the_monitor_localizes_with_the_drivers_scout_window(self):
        driver = ChurnDriver.for_workload("small", events=5, seed=4, change_window=37)
        windows = {
            driver.monitor.localizer.change_oracle.window,
            driver.system.localizer.change_oracle.window,
        }
        assert windows == {37}

    def test_strict_divergence_raises_with_the_record(self, driver):
        # Sabotage the deployed state *behind the monitor's back*: detach the
        # instrumentation first so no event reaches the incremental checker.
        driver.monitor.stop()
        victim = driver.controller.fabric.leaf_uids()[0]
        driver.controller.fabric.switch(victim).tcam.remove_where(lambda rule: True)
        with pytest.raises(ChurnDivergenceError) as excinfo:
            driver.checkpoint(seq=1)
        assert excinfo.value.checkpoint is not None
        assert excinfo.value.checkpoint.diverged

    def test_a_corrupted_controller_compile_is_caught_by_the_next_checkpoint(
        self, driver, monkeypatch
    ):
        """The monitor reads the controller's compiled policy, so the oracle
        must not: its L is the from-scratch reference compile."""
        assert driver.checkpoint(seq=0).ok
        build = CompiledRules.build

        def stale_for_one_leaf(index, previous=None):
            compiled = build(index, previous)
            moved = [
                uid
                for uid, rules in compiled.by_switch.items()
                if previous is not None and rules is not previous.by_switch.get(uid)
            ]
            if not moved:
                return compiled
            stale = {**compiled.by_switch, moved[0]: previous.by_switch[moved[0]]}
            return dataclasses.replace(compiled, by_switch=stale)

        monkeypatch.setattr(CompiledRules, "build", stale_for_one_leaf)
        driver.apply(PolicyAdd(seq=1, rule_id=1, draw_seed=11))
        driver.clock.tick()
        driver.monitor.poll()
        recorder = FlightRecorder()
        with recording(recorder), pytest.raises(ChurnDivergenceError) as excinfo:
            driver.checkpoint(seq=2)
        assert excinfo.value.checkpoint.diverged
        bundle = recorder.dumps()[-1]
        assert bundle["trigger"] == "churn-divergence"
        assert bundle["context"]["seq"] == 2

    def test_a_checkpoint_polls_dirt_that_came_with_no_event(self):
        """A restore that finds drift leaves dirty switches and no pending
        event; the checkpoint must poll them before it compares."""
        driver = ChurnDriver.for_workload("small", events=10, seed=3)
        document = driver.monitor.snapshot()
        driver.monitor.close()
        # Widen the filter most leaves depend on, straight in the tenant
        # table: no change-log record, no event, no deployment.
        index = driver.controller.build_index()

        def leaves_depending_on(flt):
            pairs = index.pairs_for_object(flt.uid)
            return {leaf for pair in pairs for leaf in index.switches_for_pair(pair)}

        policy = driver.controller.policy
        target = max(policy.filters(), key=lambda flt: len(leaves_depending_on(flt)))
        policy.tenant_of(target.uid).filters[target.uid] = dataclasses.replace(
            target, entries=target.entries + (FilterEntry(protocol="tcp", port=47000),)
        )
        driver.monitor = NetworkMonitor.from_snapshot(driver.controller, document)
        try:
            assert driver.monitor.pending_events() == 0
            drifted = driver.monitor.stats()["dirty_switches"]
            assert drifted == len(leaves_depending_on(target)) > 1
            record = driver.checkpoint(seq=1)
            assert record.ok
            assert len(record.incident_switches) == drifted
        finally:
            driver.close()

    def test_non_strict_records_the_divergence(self):
        driver = ChurnDriver.for_workload("small", events=10, seed=4, strict=False)
        driver.monitor.stop()
        victim = driver.controller.fabric.leaf_uids()[0]
        driver.controller.fabric.switch(victim).tcam.remove_where(lambda rule: True)
        record = driver.checkpoint(seq=1)
        assert record.diverged and not record.ok

    def test_checkpoint_records_serialize(self, driver):
        record = driver.checkpoint(seq=1)
        payload = record.to_dict()
        assert payload["event"] == "checkpoint"
        assert payload["diverged"] is False
        assert payload["fingerprint"] == record.full_fingerprint


class TestRun:
    def test_run_applies_generated_stream_and_reports(self, driver):
        report = driver.run()
        assert report.events_applied + report.skipped == driver.profile.events
        assert report.checkpoints and report.divergence_count == 0
        assert report.final_fingerprint == report.checkpoints[-1].full_fingerprint
        payload = report.to_dict()
        assert payload["divergence_count"] == 0
        assert "duration_seconds" not in report.identity()

    def test_same_seed_same_identity(self):
        first = ChurnDriver.for_workload("small", events=30, seed=6).run()
        second = ChurnDriver.for_workload("small", events=30, seed=6).run()
        assert first.identity() == second.identity()

    def test_different_workload_seeds_differ(self):
        first = ChurnDriver.for_workload("small", events=30, seed=6).run()
        second = ChurnDriver.for_workload("small", events=30, seed=7).run()
        assert first.identity() != second.identity()

    def test_close_releases_the_oracle_systems_pool_and_leaves_the_monitor(self):
        with ChurnDriver.for_workload("small", events=10, seed=6) as driver:
            pool = driver.system.worker_pool(max_workers=1)
            assert driver.run().divergence_count == 0
        assert pool.closed and driver.system.pool is None
        assert driver.monitor.running
        driver.monitor.close()
