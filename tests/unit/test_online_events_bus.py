"""Unit tests for the online event types, the bus and the instrumentation."""

import random

import pytest

from repro.experiments import prepare_workload
from repro.fabric import FaultCode, FaultLogBook, TcamTable
from repro.fabric.tcam import InstallOutcome
from repro.faults import inject_full_object_fault, inject_partial_object_fault
from repro.online import (
    DeviceFault,
    EventBus,
    NetworkMonitor,
    PolicyChanged,
    TcamChanged,
    instrument,
)
from repro.policy.objects import Contract
from repro.protocol import Operation
from repro.rules import TcamRule
from repro.workloads import simulation_profile


def make_rule(port=80, **overrides) -> TcamRule:
    values = dict(
        vrf_scope=101,
        src_epg=1,
        dst_epg=2,
        protocol="tcp",
        port=port,
        action="allow",
        filter_uid="filter:t/f",
    )
    values.update(overrides)
    return TcamRule(**values)


class TestEventBus:
    def test_publish_reaches_every_subscriber_in_order(self):
        bus = EventBus()
        first, second = [], []
        bus.subscribe(first.append)
        wiped = TcamChanged(timestamp=1, switch_uid="leaf-1", installed=0, lost=4)
        assert bus.publish(wiped) == 1
        bus.subscribe(second.append)
        synced = TcamChanged(timestamp=2, switch_uid="leaf-1", installed=4, lost=0)
        fault = DeviceFault(timestamp=2, device_uid="leaf-1", code=FaultCode.UNKNOWN)
        assert bus.publish(synced) == 2
        assert bus.publish(fault) == 2
        assert first == [wiped, synced, fault]
        assert second == [synced, fault]
        assert bus.counts == {"TcamChanged": 2, "DeviceFault": 1}
        assert bus.total_events() == 3

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(seen.append)
        for t in range(3):
            bus.publish(DeviceFault(timestamp=t, device_uid="leaf-1", code=FaultCode.UNKNOWN))
        bus.unsubscribe(handler)
        bus.publish(DeviceFault(timestamp=9, device_uid="leaf-1", code=FaultCode.UNKNOWN))
        assert len(seen) == 3
        assert bus.total_events() == 4

    def test_event_describe_is_stable(self):
        event = PolicyChanged(
            timestamp=3,
            object_uid="filter:t/f",
            object_type=None,
            operation=Operation.MODIFY,
        )
        assert "policy-changed modify filter:t/f" in event.describe()
        wiped = TcamChanged(timestamp=4, switch_uid="leaf-1", installed=2, lost=136)
        assert wiped.describe() == "t=4 tcam-changed leaf-1 +2 -136"


def listening(table: TcamTable) -> list:
    """Subscribe to ``table``; the returned list collects ``(installed, lost)``."""
    seen = []
    table.subscribe(lambda installed, lost: seen.append((installed, lost)))
    return seen


class TestTcamListeners:
    """One notification per outermost mutating call, sized in rules."""

    def test_install_and_remove(self):
        table = TcamTable()
        seen = listening(table)
        rule = make_rule(80)
        table.install(rule)
        table.install(rule)  # already present: nothing written
        table.remove(rule.match_key())
        table.remove(rule.match_key())  # absent: nothing written
        table.remove_rule(rule)
        assert seen == [(1, 0), (0, 1)]

    def test_a_rejected_install_is_a_loss_and_an_eviction_is_both(self):
        rejecting = TcamTable(capacity=1)
        seen = listening(rejecting)
        rejecting.install(make_rule(1))
        assert rejecting.install(make_rule(2))[0] is InstallOutcome.REJECTED_FULL
        assert seen == [(1, 0), (0, 1)]

        evicting = TcamTable(capacity=1, evict_on_overflow=True)
        seen = listening(evicting)
        evicting.install(make_rule(1))
        assert evicting.install(make_rule(2))[0] is InstallOutcome.INSTALLED_WITH_EVICTION
        assert seen == [(1, 0), (1, 1)]

    def test_remove_where_and_clear_are_one_call_each(self):
        table = TcamTable()
        for port in range(1, 9):
            table.install(make_rule(port))
        seen = listening(table)
        removed = table.remove_where(lambda rule: rule.port <= 3)
        assert len(removed) == 3 and seen == [(0, 3)]
        assert table.remove_where(lambda rule: False) == [] and seen == [(0, 3)]
        seen.clear()
        held = len(table)
        table.clear()
        table.clear()  # already empty: nothing written
        assert seen == [(0, held)]

    def test_nested_scopes_flush_once(self):
        table = TcamTable()
        seen = listening(table)
        with table.transaction():
            table.install(make_rule(1))
            with table.transaction():
                table.install(make_rule(2))
                table.remove_where(lambda rule: rule.port == 1)
            assert seen == []
        assert seen == [(2, 1)]
        with table.transaction():
            pass  # nothing written, nobody told
        assert seen == [(2, 1)]

    def test_a_body_that_raises_still_announces_its_writes(self):
        table = TcamTable()
        table.install(make_rule(1))
        table.install(make_rule(2))
        table.install(make_rule(3))
        seen = listening(table)
        with pytest.raises(RuntimeError):
            with table.transaction():
                table.remove(make_rule(1).match_key())
                table.remove(make_rule(2).match_key())
                raise RuntimeError("agent died mid-reconcile")
        assert seen == [(0, 2)]
        # The scope closed: the next write is a transaction of its own.
        table.remove(make_rule(3).match_key())
        assert seen == [(0, 2), (0, 1)]

    def test_an_unobserved_table_counts_as_before(self):
        table = TcamTable(capacity=2, evict_on_overflow=True)
        for port in (1, 2, 3):
            table.install(make_rule(port))
        table.install(make_rule(3))
        assert (table.install_attempts, table.rejected_installs, table.evictions) == (4, 0, 1)
        full = TcamTable(capacity=1)
        full.install(make_rule(1))
        full.install(make_rule(2))
        assert (full.install_attempts, full.rejected_installs, full.evictions) == (2, 1, 0)
        # A listener that arrives later hears nothing about earlier writes.
        seen = listening(full)
        full.remove(make_rule(1).match_key())
        assert seen == [(0, 1)]

    def test_unsubscribe(self):
        table = TcamTable()
        seen = []
        handler = table.subscribe(lambda installed, lost: seen.append(installed))
        table.unsubscribe(handler)
        table.unsubscribe(handler)
        table.install(make_rule())
        assert seen == []

    def test_sync_tcam_is_one_transaction(self, three_tier):
        switch = three_tier.fabric.switch("leaf-2")
        held = len(switch.tcam)
        switch.tcam.clear()
        seen = listening(switch.tcam)
        counters = switch.sync_tcam()
        assert counters["installed"] == held and seen == [(held, 0)]
        assert switch.sync_tcam()["installed"] == 0 and seen == [(held, 0)]

    def test_an_overflowing_sync_counts_its_rejections(self, three_tier):
        switch = three_tier.fabric.switch("leaf-2")
        held = len(switch.tcam)
        switch.tcam.clear()
        switch.tcam.capacity = held - 2
        seen = listening(switch.tcam)
        counters = switch.sync_tcam()
        assert counters["rejected"] == 2
        assert seen == [(held - 2, 2)]

    def test_object_faults_are_one_transaction_per_switch(self, three_tier, rng):
        fabric = three_tier.fabric
        seen = {uid: listening(fabric.switch(uid).tcam) for uid in fabric.leaf_uids()}
        full = inject_full_object_fault(fabric, three_tier.uids["filter_extra_0"])
        assert set(full.removed_rules) == {"leaf-2", "leaf-3"}
        assert seen == {"leaf-1": [], "leaf-2": [(0, 2)], "leaf-3": [(0, 2)]}
        for calls in seen.values():
            calls.clear()
        partial = inject_partial_object_fault(
            fabric, three_tier.uids["app_db_contract"], rng=rng, fraction=0.9
        )
        assert len(partial.removed_rules) == 2
        for uid, calls in seen.items():
            removed = partial.removed_rules.get(uid, [])
            assert calls == ([(0, len(removed))] if removed else [])


class TestFaultLogListeners:
    def test_raise_notifies_and_extend_does_not(self):
        book = FaultLogBook()
        seen = []
        book.subscribe(seen.append)
        record = book.raise_fault(3, "leaf-1", FaultCode.TCAM_OVERFLOW)
        assert seen == [record]
        merged = FaultLogBook()
        merged.subscribe(seen.append)
        merged.extend(book.records())
        assert len(seen) == 1


class TestInstrumentation:
    def test_policy_change_and_tcam_writes_become_events(self, three_tier):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        inst = instrument(three_tier.controller, bus)
        assert len(inst) > 0

        contract_uid = three_tier.uids["app_db_contract"]
        contract = three_tier.policy.tenants["webshop"].contracts[contract_uid]
        updated = Contract(uid=contract.uid, name=contract.name, filter_uids=contract.filter_uids)
        three_tier.controller.modify_object("webshop", updated, detail="noop modify")
        changed = [e for e in seen if isinstance(e, PolicyChanged)]
        assert [e.object_uid for e in changed] == [contract_uid]
        assert changed[0].operation is Operation.MODIFY

        switch = three_tier.fabric.switch("leaf-2")
        removed = switch.tcam.remove_where(lambda rule: True)
        switch.sync_tcam()
        now = three_tier.controller.clock.peek()
        assert [e for e in seen if isinstance(e, TcamChanged)] == [
            TcamChanged(timestamp=now, switch_uid="leaf-2", installed=0, lost=len(removed)),
            TcamChanged(timestamp=now, switch_uid="leaf-2", installed=len(removed), lost=0),
        ]
        assert bus.counts["TcamChanged"] == 2

        switch.make_unresponsive()
        faults = [e for e in seen if isinstance(e, DeviceFault)]
        assert faults and faults[-1].code is FaultCode.SWITCH_UNREACHABLE

    def test_detach_silences_the_bus(self, three_tier):
        bus = EventBus()
        inst = instrument(three_tier.controller, bus)
        inst.detach()
        assert len(inst) == 0
        three_tier.fabric.switch("leaf-1").tcam.remove_where(lambda rule: True)
        three_tier.fabric.switch("leaf-1").make_unresponsive()
        assert bus.total_events() == 0

    def test_a_storm_cycle_is_two_events_per_leaf_hit(self):
        """The e2e harness's ``_storm_cycle`` shape: every leaf loses a random
        half of its TCAM, a poll, every leaf resyncs, a poll."""
        deployed = prepare_workload(simulation_profile())
        controller = deployed.controller
        monitor = NetworkMonitor(controller)
        monitor.start()
        draws = random.Random(2018)
        before = monitor.bus.total_events()
        leaves = sorted(controller.fabric.leaf_uids())
        hit = [
            uid
            for uid in leaves
            if controller.fabric.switch(uid).tcam.remove_where(
                lambda rule: draws.random() < 0.5
            )
        ]
        assert len(hit) == len(leaves) == 10
        controller.clock.tick(2)
        lost = monitor.poll(force=True)
        assert lost.events == len(hit) and len(lost.opened) == len(hit)
        for uid in leaves:
            controller.fabric.switch(uid).sync_tcam()
        controller.clock.tick(2)
        assert len(monitor.poll(force=True).resolved) == len(hit)
        assert monitor.bus.total_events() - before == 2 * len(hit)
        monitor.close()
