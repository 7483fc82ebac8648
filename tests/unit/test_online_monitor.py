"""Unit tests for the NetworkMonitor daemon and the incident store."""

import json

import pytest

from repro.fabric import FaultCode
from repro.online import IncidentStore, NetworkMonitor


@pytest.fixture
def monitored(three_tier):
    monitor = NetworkMonitor(three_tier.controller, debounce_ticks=1)
    report = monitor.start()
    return three_tier, monitor, report


class TestLifecycle:
    def test_clean_start_opens_nothing(self, monitored):
        _, monitor, report = monitored
        assert report.equivalent
        assert monitor.store.active() == []
        assert monitor.poll(force=True) is None  # no pending events

    def test_fault_detect_localize_update_resolve(self, monitored):
        scenario, monitor, _ = monitored
        controller = scenario.controller
        switch = scenario.fabric.switch("leaf-2")

        # Fault: leaf-2 silently loses its port-700 (App-DB) rules.
        lost = switch.tcam.remove_where(lambda rule: rule.port == 700)
        assert lost
        controller.clock.tick(2)
        first = monitor.poll()
        assert first is not None
        assert first.switches_rechecked == ["leaf-2"]
        assert len(first.opened) == 1
        incident = first.opened[0]
        assert incident.switch_uid == "leaf-2"
        assert incident.missing_rules == len(lost)
        assert incident.suspects  # scoped SCOUT produced a hypothesis
        assert monitor.store.active_for("leaf-2") is incident

        # The violation worsens: more rules lost -> the incident updates.
        switch.tcam.remove_where(lambda rule: rule.port == 80)
        controller.clock.tick(2)
        second = monitor.poll()
        assert second.updated == [incident]
        assert incident.updates == 1
        assert incident.missing_rules > len(lost)

        # Repair: the agent resyncs its TCAM -> the incident resolves.
        switch.sync_tcam()
        controller.clock.tick(2)
        third = monitor.poll()
        assert third.resolved == [incident]
        assert not incident.is_open
        assert incident.resolved_at == controller.clock.peek()
        assert monitor.store.active() == []
        # Throughout, the monitor never ran a second full sweep.
        assert monitor.stats()["full_checks"] == 1

    def test_policy_drift_opens_and_deploy_resolves(self, monitored):
        scenario, monitor, _ = monitored
        controller = scenario.controller
        from repro.policy.objects import Filter, FilterEntry

        filter_uid = scenario.uids["filter_extra_0"]
        flt = Filter(
            uid=filter_uid,
            name="port700",
            entries=(FilterEntry(protocol="tcp", port=700), FilterEntry(protocol="tcp", port=799)),
        )
        controller.modify_object("webshop", flt, detail="widen App-DB filter")
        controller.clock.tick(2)
        drift = monitor.poll()
        # Only the App-DB switches drift; leaf-1 is untouched.
        assert drift.switches_rechecked == ["leaf-2", "leaf-3"]
        assert {incident.switch_uid for incident in drift.opened} == {"leaf-2", "leaf-3"}
        # The freshly changed filter is the top change-log suspect.
        for incident in drift.opened:
            assert filter_uid in incident.suspects

        controller.deploy(record_initial_changes=False)
        controller.clock.tick(2)
        healed = monitor.poll()
        assert {incident.switch_uid for incident in healed.resolved} == {"leaf-2", "leaf-3"}
        assert monitor.store.active() == []

    def test_device_fault_codes_attach_to_incident(self, monitored):
        scenario, monitor, _ = monitored
        switch = scenario.fabric.switch("leaf-3")
        switch.tcam.remove_where(lambda rule: True)
        switch.make_unresponsive()  # raises SWITCH_UNREACHABLE on the device log
        scenario.controller.clock.tick(2)
        result = monitor.poll()
        assert len(result.opened) == 1
        assert FaultCode.SWITCH_UNREACHABLE.value in result.opened[0].fault_codes


class TestDebounce:
    def test_poll_waits_for_the_burst_to_settle(self, monitored):
        scenario, monitor, _ = monitored
        monitor.debounce_ticks = 3
        scenario.fabric.switch("leaf-1").tcam.remove_where(lambda rule: True)
        assert monitor.pending_events() > 0
        assert monitor.poll() is None  # burst not settled yet
        scenario.controller.clock.tick(2)
        assert not monitor.due()
        assert monitor.poll() is None
        scenario.controller.clock.tick(1)
        assert monitor.due()
        result = monitor.poll()
        assert result is not None and result.switches_rechecked == ["leaf-1"]

    def test_steady_event_stream_cannot_starve_detection(self, monitored):
        scenario, monitor, _ = monitored
        monitor.debounce_ticks = 2
        monitor.max_wait_ticks = 6
        controller = scenario.controller
        # A real violation on leaf-2 ...
        scenario.fabric.switch("leaf-2").tcam.remove_where(lambda rule: rule.port == 700)
        leaf1 = scenario.fabric.switch("leaf-1")
        # ... buried under an unrelated event every tick (burst never settles).
        result = None
        for _ in range(10):
            controller.clock.tick(1)
            leaf1.tcam.remove_where(lambda rule: rule.port == 80)
            leaf1.sync_tcam()
            result = monitor.poll()
            if result is not None:
                break
        assert result is not None, "max_wait_ticks must bound detection latency"
        assert {incident.switch_uid for incident in result.opened} == {"leaf-2"}

    def test_unchanged_violation_is_not_an_update(self, monitored):
        scenario, monitor, _ = monitored
        controller = scenario.controller
        switch = scenario.fabric.switch("leaf-2")
        switch.tcam.remove_where(lambda rule: rule.port == 700)
        controller.clock.tick(2)
        opened = monitor.poll()
        incident = opened.opened[0]
        # An unrelated remove+reinstall re-checks leaf-2 with identical
        # evidence: the incident must not churn.
        bounced = switch.tcam.remove_where(lambda rule: rule.port == 80)
        for rule in bounced:
            switch.tcam.write((), {rule.match_key(): rule})
        controller.clock.tick(2)
        repeat = monitor.poll()
        assert repeat.switches_rechecked == ["leaf-2"]
        assert repeat.quiet
        assert incident.updates == 0
        assert incident.updated_at == opened.triggered_at

    def test_force_overrides_the_debounce(self, monitored):
        scenario, monitor, _ = monitored
        monitor.debounce_ticks = 100
        scenario.fabric.switch("leaf-1").tcam.remove_where(lambda rule: True)
        result = monitor.poll(force=True)
        assert result is not None
        assert monitor.pending_events() == 0


class TestStartStop:
    def test_start_on_degraded_network_opens_incidents(self, three_tier):
        three_tier.fabric.switch("leaf-2").tcam.remove_where(lambda rule: True)
        monitor = NetworkMonitor(three_tier.controller)
        report = monitor.start()
        assert not report.equivalent
        active = monitor.store.active()
        assert [incident.switch_uid for incident in active] == ["leaf-2"]
        assert monitor.passes  # the baseline pass was recorded

    def test_stop_start_cycle_does_not_double_subscribe(self, three_tier):
        # unsubscribe must match the monitor's bound method by equality:
        # every stop/start cycle otherwise leaves one more subscription on
        # the monitor's bus, and each event is processed once per cycle.
        monitor = NetworkMonitor(three_tier.controller)
        for _ in range(2):
            monitor.start()
            monitor.stop()
        monitor.start()
        lost = three_tier.fabric.switch("leaf-1").tcam.remove_where(
            lambda rule: rule.port == 80
        )
        # One wipe, one event, delivered once.
        assert lost and monitor.pending_events() == 1
        monitor.stop()
        # The stopped monitor no longer listens at all.
        assert three_tier.fabric.switch("leaf-2").tcam.remove_where(lambda rule: True)
        assert monitor.pending_events() == 1

    def test_double_start_rejected_and_stop_detaches(self, monitored):
        scenario, monitor, _ = monitored
        with pytest.raises(RuntimeError):
            monitor.start()
        monitor.stop()
        scenario.fabric.switch("leaf-1").tcam.remove_where(lambda rule: True)
        assert monitor.pending_events() == 0
        assert monitor.bus.total_events() == 0
        # Restarting after stop works.
        monitor2 = NetworkMonitor(scenario.controller)
        monitor2.start()
        assert monitor2.store.active_for("leaf-1") is not None
        monitor2.stop()


class TestFailedPollRecovery:
    @pytest.fixture(params=(1, 2), ids=lambda count: f"partitions={count}")
    def monitored(self, request, three_tier):
        monitor = NetworkMonitor(
            three_tier.controller, debounce_ticks=1, partitions=request.param
        )
        report = monitor.start()
        return three_tier, monitor, report

    @staticmethod
    def owner_of(monitor, switch_uid):
        return monitor.checkers[monitor.partition_map.partition_of(switch_uid)]

    def test_failed_refresh_keeps_the_batch_and_retries(self, monitored, monkeypatch):
        scenario, monitor, _ = monitored
        controller = scenario.controller
        switch = scenario.fabric.switch("leaf-2")
        lost = switch.tcam.remove_where(lambda rule: rule.port == 700)
        assert lost
        pending = monitor.pending_events()
        controller.clock.tick(2)

        calls = {"n": 0}
        owner = self.owner_of(monitor, "leaf-2")
        real_refresh = owner.refresh

        def flaky_refresh(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker pool died mid-refresh")
            return real_refresh(*args, **kwargs)

        monkeypatch.setattr(owner, "refresh", flaky_refresh)
        with pytest.raises(RuntimeError):
            monitor.poll()
        # The batch survives the failure: same events, still due, nothing
        # recorded as a pass.
        assert monitor.pending_events() == pending
        assert monitor.due()
        assert monitor.passes == []

        # The retry processes exactly the batch the failed poll put back —
        # and the corr id shows the failed attempt burned no sequence number.
        result = monitor.poll()
        assert result is not None
        assert result.events == pending
        assert result.switches_rechecked == ["leaf-2"]
        assert len(result.opened) == 1
        now = controller.clock.peek()
        assert result.opened[0].corr_id == f"poll-t{now}-000001"

    def test_events_arriving_after_a_failed_poll_join_the_retried_batch(
        self, monitored, monkeypatch
    ):
        scenario, monitor, _ = monitored
        controller = scenario.controller
        scenario.fabric.switch("leaf-2").tcam.remove_where(lambda rule: rule.port == 700)
        before = monitor.pending_events()
        controller.clock.tick(2)

        monkeypatch.setattr(
            self.owner_of(monitor, "leaf-2"),
            "refresh",
            lambda *a, **k: (_ for _ in ()).throw(OSError()),
        )
        with pytest.raises(OSError):
            monitor.poll()
        monkeypatch.undo()

        # A second fault lands while the monitor is broken: the restored
        # batch stays *in front of* it, so nothing is reordered or lost.
        scenario.fabric.switch("leaf-3").tcam.remove_where(lambda rule: rule.port == 700)
        assert monitor.pending_events() > before
        controller.clock.tick(2)
        result = monitor.poll()
        assert result.switches_rechecked == ["leaf-2", "leaf-3"]
        assert {incident.switch_uid for incident in result.opened} == {"leaf-2", "leaf-3"}


    def test_plain_loop_stops_at_the_first_failing_partition(self, three_tier, monkeypatch):
        # Without a worker budget nothing after the failure has run yet, so
        # nothing is refreshed only to be re-dirtied (and a KeyboardInterrupt
        # is not held up by a pass over the remaining partitions).
        monitor = NetworkMonitor(three_tier.controller, debounce_ticks=1, partitions=2)
        monitor.start()
        first, second = monitor.checkers
        for leaf in ("leaf-1", "leaf-2", "leaf-3"):
            three_tier.fabric.switch(leaf).tcam.remove_where(lambda rule: True)
        dirty_second = second.snapshot_state()["dirty_switches"]
        assert first.snapshot_state()["dirty_switches"] and dirty_second
        monkeypatch.setattr(
            first, "refresh", lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        checks_before = second.stats()["switch_checks"]
        with pytest.raises(KeyboardInterrupt):
            monitor.poll(force=True)
        assert second.stats()["switch_checks"] == checks_before
        assert second.snapshot_state()["dirty_switches"] == dirty_second
        monkeypatch.undo()
        result = monitor.poll(force=True)
        assert result.switches_rechecked == ["leaf-1", "leaf-2", "leaf-3"]
        monitor.close()


class TestSamePassFaultAndResolve:
    def test_fault_code_lands_on_the_incident_the_same_pass_resolves(self, monitored):
        scenario, monitor, _ = monitored
        controller = scenario.controller
        switch = scenario.fabric.switch("leaf-2")
        switch.tcam.remove_where(lambda rule: rule.port == 700)
        controller.clock.tick(2)
        opened = monitor.poll()
        incident = opened.opened[0]
        assert incident.fault_codes == []

        # One batch carries both the device fault and the repair: the pass
        # resolves the incident and must still attach the code to it — the
        # fault belongs to the incident that was active during the batch,
        # not to the void.
        switch.make_unresponsive()  # raises SWITCH_UNREACHABLE on the device log
        switch.sync_tcam()
        controller.clock.tick(2)
        healed = monitor.poll()
        assert healed.resolved == [incident]
        assert not incident.is_open
        assert FaultCode.SWITCH_UNREACHABLE.value in incident.fault_codes

    def test_fault_code_still_attaches_when_the_incident_opens_in_the_pass(
        self, monitored
    ):
        # The complementary ordering (fault + violation in one batch) keeps
        # working: the code lands on the incident the pass just opened.
        scenario, monitor, _ = monitored
        switch = scenario.fabric.switch("leaf-1")
        switch.tcam.remove_where(lambda rule: rule.port == 80)
        switch.make_unresponsive()
        scenario.controller.clock.tick(2)
        result = monitor.poll()
        assert len(result.opened) == 1
        assert FaultCode.SWITCH_UNREACHABLE.value in result.opened[0].fault_codes


class TestIncidentStore:
    def test_open_twice_rejected(self):
        store = IncidentStore()
        store.open("leaf-1", 5, missing_rules=2)
        with pytest.raises(ValueError):
            store.open("leaf-1", 6)
        with pytest.raises(ValueError):
            store.update("leaf-2", 6)
        assert store.resolve("leaf-9", 7) is None

    @staticmethod
    def _round_trip(store):
        """The store through the snapshot's JSON text into a fresh one."""
        loaded = IncidentStore()
        loaded.restore(json.loads(json.dumps(store.snapshot())))
        return loaded

    def test_jsonl_round_trip(self):
        store = IncidentStore()
        first = store.open("leaf-1", 5, missing_rules=2, suspects=["filter:a"])
        store.resolve("leaf-1", 9)
        store.open("leaf-2", 11, missing_rules=4, suspects=["epg:b", "contract:c"])
        store.note_fault("leaf-2", "tcam-overflow")

        loaded = self._round_trip(store)
        assert loaded.to_jsonl() == store.to_jsonl()
        assert len(loaded) == 2
        resolved = loaded.get(first.incident_id)
        assert resolved is not None and not resolved.is_open
        assert resolved.resolved_at == 9
        active = loaded.active_for("leaf-2")
        assert active is not None
        assert active.suspects == ["contract:c", "epg:b"]
        assert active.fault_codes == ["tcam-overflow"]
        # The loaded store keeps allocating fresh incident ids.
        fresh = loaded.open("leaf-3", 20)
        assert fresh.incident_id not in {first.incident_id, active.incident_id}

    def test_empty_store_round_trip(self):
        assert len(self._round_trip(IncidentStore())) == 0
