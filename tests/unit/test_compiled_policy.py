"""The controller's compiled policy: what is reused, when, and by whom.

``Controller.build_index()`` / ``logical_rules()`` are served from one
snapshot that is compared with the tenants' live object tables on every
call.  These tests pin the contract around that: a repeat call reuses, any
edit (through the controller or behind its back) is seen by the very next
call, every edit derives the next index from the held one and recompiles
its own pairs and switches only, nothing the cache hands out can be used to
change what the next caller gets, and the online monitor reads the same
compile instead of keeping one of its own.  The risk models' structure
rides on the index, so it lives by the same rule: a derived index keeps a
leaf's structure while none of that leaf's pairs moved, and the fabric's
while no pair did."""

from __future__ import annotations

import dataclasses
import gc
import re
import sys
import threading
import weakref

import pytest

from oracles import failed_edges
from repro import Controller
from repro.controller.compiler import CompiledRules, compile_logical_rules
from repro.core import ScoutSystem
from repro.obs import TraceCollector, activated
from repro.online import NetworkMonitor
from repro.policy.graph import PolicyIndex
from repro.policy.objects import Endpoint, FilterEntry
from repro.risk import build_controller_risk_model, build_switch_risk_model
from repro.rules import RuleSequence
from repro.service import TestClient, service_for_profile
from repro.verify import EquivalenceChecker
from repro.workloads import generate_workload, small_profile


@pytest.fixture
def controller():
    workload = generate_workload(small_profile())
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    return controller


def _as_lists(rules):
    return {uid: list(sequence) for uid, sequence in rules.items()}


def _shared_filter(controller):
    """A filter some pairs depend on, its tenant, and an edited copy."""
    index = PolicyIndex(controller.policy)
    target = next(f for f in controller.policy.filters() if index.pairs_for_object(f.uid))
    edited = dataclasses.replace(
        target, entries=target.entries + (FilterEntry(protocol="tcp", port=47000),)
    )
    return controller.policy.tenant_of(target.uid), target, edited


def _delta(controller, before):
    return {key: value - before[key] for key, value in controller.compile_stats().items()}


class TestReuse:
    def test_repeat_calls_are_served_from_one_snapshot(self, controller):
        first_index = controller.build_index()
        first_rules = controller.logical_rules()
        before = controller.compile_stats()
        assert controller.build_index() is first_index
        again = controller.logical_rules(index=first_index)
        assert all(again[uid] is first_rules[uid] for uid in first_rules)
        assert _delta(controller, before) == {
            "reuses": 2,
            "rebuilds": 0,
            "patches": 0,
            "pairs_compared": 0,
            "pairs_recompiled": 0,
            "switches_reassembled": 0,
        }

    def test_rules_equal_the_from_scratch_compile(self, controller):
        fresh = compile_logical_rules(controller.policy)
        cached = controller.logical_rules()
        assert list(cached) == list(fresh)
        assert _as_lists(cached) == fresh
        for sequence in cached.values():
            assert isinstance(sequence, RuleSequence)
            assert sequence.key_set() == {rule.match_key() for rule in sequence}

    def test_deploy_builds_the_index_but_not_the_rules(self, controller):
        # deploy() ran in the fixture: one index, no logical-rule compile.
        assert controller.compile_stats() == {
            "reuses": 0,
            "rebuilds": 1,
            "patches": 0,
            "pairs_compared": 0,
            "pairs_recompiled": 0,
            "switches_reassembled": 0,
        }


class TestInvalidation:
    def test_an_edited_filter_recompiles_its_pairs_not_the_fabric(self, controller):
        controller.logical_rules()
        tenant, target, edited = _shared_filter(controller)
        old_index = controller.build_index()
        pairs = old_index.pairs_for_object(target.uid)
        switches = {uid for pair in pairs for uid in old_index.switches_for_pair(pair)}
        assert 0 < len(pairs) < len(old_index.pairs)
        before = controller.compile_stats()
        controller.modify_object(tenant.name, edited)
        cached = controller.logical_rules()
        assert _as_lists(cached) == compile_logical_rules(controller.policy)
        # The index is derived, never re-built, and only the pairs relying
        # on the filter have their inputs compared.
        assert _delta(controller, before) == {
            "reuses": 0,
            "rebuilds": 0,
            "patches": 1,
            "pairs_compared": len(pairs),
            "pairs_recompiled": len(pairs),
            "switches_reassembled": len(switches),
        }
        assert controller.build_index() is not old_index
        assert old_index.filter(target.uid) is target

    def test_a_structural_edit_derives_the_index_too(self, controller):
        before_rules = controller._compiled_rules()
        old_index = before_rules.index
        _, leaves = _pair_up(controller, misses={"leaf-2"})
        edited_epg = next(
            epg for epg in controller.policy.epgs() if epg is not old_index.epg(epg.uid)
        )
        before = controller.compile_stats()
        assert _as_lists(controller.logical_rules()) == compile_logical_rules(
            controller.policy
        )
        spent = _delta(controller, before)
        assert (spent["rebuilds"], spent["patches"]) == (0, 1)
        # Only the rewired EPG's pairs, before and after, were compared ...
        index = controller.build_index()
        moved = set(old_index.pairs_for_object(edited_epg.uid))
        moved |= set(index.pairs_for_object(edited_epg.uid))
        assert spent["pairs_compared"] == len(moved) < len(index.pairs)
        # ... and the compile is the full scan's: same renders, same leaves
        # re-assembled, every other leaf's sequence the very same object.
        compiled = controller._compiled_rules()
        scanned = CompiledRules.build(PolicyIndex(controller.policy), before_rules)
        assert scanned.pairs_compared == len(index.pairs)
        assert spent["pairs_recompiled"] == scanned.pairs_recompiled > 0
        assert spent["switches_reassembled"] == scanned.switches_reassembled
        for uid, sequence in compiled.by_switch.items():
            kept = sequence is before_rules.by_switch[uid]
            assert kept == (scanned.by_switch[uid] is before_rules.by_switch[uid])
            assert kept == (uid not in leaves)

    def test_a_rewired_epg_re_renders_only_pairs_whose_rules_moved(self, controller):
        """Gaining a contract rewires an EPG's pairs, not its rules: the
        render key leaves ``consumes`` out, so of the pairs compared only
        the new ones, and those bound by a longer contract list, render."""
        old_index = controller._compiled_rules().index
        _pair_up(controller)
        before = controller.compile_stats()
        assert _as_lists(controller.logical_rules()) == compile_logical_rules(
            controller.policy
        )
        index = controller.build_index()
        known = set(old_index.pairs)
        moved = [
            pair
            for pair in index.pairs
            if pair not in known
            or index.contracts_for_pair(pair) != old_index.contracts_for_pair(pair)
        ]
        spent = _delta(controller, before)
        assert spent["pairs_recompiled"] == len(moved)
        assert 0 < len(moved) < spent["pairs_compared"]

    def test_the_same_frozen_object_put_back_compares_no_pair(self, controller):
        rules = controller.logical_rules()
        epg = next(iter(controller.policy.epgs()))
        tenant = controller.policy.tenant_of(epg.uid)
        before = controller.compile_stats()
        controller.modify_object(tenant.name, epg)
        assert controller.logical_rules() == rules
        assert _delta(controller, before)["reuses"] == 1
        # Riding beside an edit that moves no pair, it is a derivation that
        # compares nothing.
        _unattached_endpoint(controller, 0)
        again = controller.logical_rules()
        assert all(again[uid] is rules[uid] for uid in rules)
        spent = _delta(controller, before)
        assert (spent["patches"], spent["pairs_compared"]) == (1, 0)
        assert spent["pairs_recompiled"] == spent["switches_reassembled"] == 0

    def test_a_compile_a_derivation_behind_compares_every_pair(self, controller):
        """The fallback shows: an index requested between two edits with no
        compile leaves the next compile a derivation behind its index, and
        ``pairs_compared`` says it compared every pair."""
        controller.logical_rules()
        tenant, target, edited = _shared_filter(controller)
        tenant.filters[target.uid] = edited
        controller.build_index()
        _unattached_endpoint(controller, 0)
        before = controller.compile_stats()
        assert _as_lists(controller.logical_rules()) == compile_logical_rules(
            controller.policy
        )
        spent = _delta(controller, before)
        index = controller.build_index()
        assert spent["pairs_compared"] == len(index.pairs)
        assert spent["pairs_recompiled"] == len(index.pairs_for_object(target.uid))

    def test_a_write_behind_the_controllers_back_is_seen_by_the_next_audit(
        self, controller
    ):
        with ScoutSystem(controller) as system:
            assert system.check(parallel=True).equivalent
            tenant, target, edited = _shared_filter(controller)
            tenant.filters[target.uid] = edited  # no controller call, no change log
            report = system.check(parallel=True)
            reference = EquivalenceChecker().check_network(
                compile_logical_rules(controller.policy),
                controller.collect_deployed_rules(),
            )
            assert not report.equivalent
            assert report.fingerprint() == reference.fingerprint()
            # Undoing it (the same frozen object back in place) is seen too.
            tenant.filters[target.uid] = target
            assert system.check(parallel=True).equivalent

    def test_an_endpoint_move_replaces_rules_on_both_leaves(self, controller):
        controller.logical_rules()
        index = controller.build_index()
        endpoint = next(
            e
            for e in controller.policy.endpoints()
            if e.switch_uid is not None and index.pairs_for_object(e.epg_uid)
        )
        elsewhere = next(
            uid for uid in sorted(controller.fabric.leaf_uids()) if uid != endpoint.switch_uid
        )
        tenant = controller.policy.tenant_of(endpoint.uid)
        controller.modify_object(tenant.name, endpoint.attached_to(elsewhere))
        assert _as_lists(controller.logical_rules()) == compile_logical_rules(
            controller.policy
        )


class TestNothingHandedOutIsMutable:
    def test_rule_sequences_and_the_dict_are_the_callers_own(self, controller):
        rules = controller.logical_rules()
        uid = next(uid for uid, sequence in rules.items() if sequence)
        with pytest.raises(TypeError):
            rules[uid][0] = None
        assert not hasattr(rules[uid], "append")
        rules.pop(uid)
        rules["leaf-bogus"] = RuleSequence()
        assert _as_lists(controller.logical_rules()) == compile_logical_rules(
            controller.policy
        )

    def test_a_derived_index_shares_maps_it_never_edits(self, controller):
        index = controller.build_index()
        tenant, target, edited = _shared_filter(controller)
        tenant.filters[target.uid] = edited
        derived = controller.build_index()
        assert derived is not index
        assert controller.compile_stats()["patches"] == 1
        assert derived.filter(target.uid) is edited
        assert index.filter(target.uid) is target
        assert derived.pairs_for_object(target.uid) == index.pairs_for_object(target.uid)
        # Lookups hand out copies, so neither holder can edit the shared maps.
        index.pairs.clear()
        index.pairs_on_switch(index.all_switches()[0]).clear()
        assert derived.pairs and derived.pairs_on_switch(index.all_switches()[0])
        # Any difference derives an index equal to a cold build of the same
        # tables, and leaves its source as it was.
        tables = index.object_tables()
        assert index.derive(tables).pairs_moved_since(index) == frozenset()
        for edited_tables in (
            [*tables[:3], tables[3][1:], tables[4]],
            [*tables[:4], tables[4][1:]],
            [tables[0], tables[1][1:], *tables[2:]],
        ):
            derived = index.derive(edited_tables)
            cold = PolicyIndex(controller.policy, edited_tables)
            assert derived.object_tables() == cold.object_tables() == edited_tables
            assert derived.pairs == cold.pairs
            for pair in cold.pairs:
                assert derived.risks_for_pair(pair) == cold.risks_for_pair(pair)
                assert derived.switches_for_pair(pair) == cold.switches_for_pair(pair)
            assert derived.pairs_moved_since(index) is not None
            assert cold.pairs_moved_since(index) is None
            assert index.object_tables() == tables

    def test_no_index_retains_its_predecessor(self, controller):
        """A derived index holds its source only weakly: under churn one
        index stays alive, not the chain of every index ever derived."""
        tenant, target, edited = _shared_filter(controller)
        held = []
        for serial in range(6):
            tenant.filters[target.uid] = (edited, target)[serial % 2]
            undo, _ = _pair_up(controller)
            controller.logical_rules()
            undo()
            controller.logical_rules()
            held.append(weakref.ref(controller.build_index()))
        gc.collect()
        assert [ref() is not None for ref in held] == [False] * 5 + [True]


class TestMonitorReadsTheControllersCompile:
    """What ``TestMonitorDoesNotAliasTheSharedIndex`` protected, now that
    the monitor has no index of its own to alias with."""

    @staticmethod
    def _indexes_held(monitor):
        return [checker._compiled.index for checker in monitor.checkers]

    def test_every_index_handed_out_earlier_keeps_the_old_filter(self, controller):
        held = [controller.build_index()]
        controller.logical_rules()
        monitor = NetworkMonitor(controller, partitions=2)
        monitor.start()
        try:
            held.extend(self._indexes_held(monitor))
            # The monitor holds the controller's own index, not a copy.
            assert all(index is held[0] for index in held)
            tenant, target, edited = _shared_filter(controller)
            before = controller.compile_stats()
            controller.modify_object(tenant.name, edited)
            controller.clock.tick(5)
            collector = TraceCollector()
            with activated(collector):
                monitor.poll(force=True)
            # One compile request for the poll, whatever the partition count,
            # and it is the payload derivation, visible in the monitor's stats.
            spans = [recorded.name for recorded in collector.spans()]
            assert spans.count("delta.compile") == 1
            assert spans.count("monitor.partition") == 2
            spent = _delta(controller, before)
            assert (spent["patches"], spent["rebuilds"]) == (1, 0)
            assert monitor.stats()["index_patches"] == 1
            assert monitor.stats()["index_rebuilds"] == 0
            current = controller.build_index()
            assert all(index is current for index in self._indexes_held(monitor))
            assert current.filter(target.uid) is edited
            # The derived index shares maps with the old one but never
            # mutates them: every earlier holder still sees the old policy.
            assert all(index.filter(target.uid) is target for index in held)
            assert _as_lists(controller.logical_rules()) == compile_logical_rules(
                controller.policy
            )
            fresh = ScoutSystem(controller).check()
            assert (
                monitor.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
        finally:
            monitor.close()

    def test_a_pass_makes_one_request_however_many_switches_violate(self, controller):
        monitor = NetworkMonitor(controller, partitions=2)
        monitor.start()
        try:
            degraded = sorted(controller.fabric.leaf_uids())[:3]
            for leaf in degraded:
                tcam = controller.fabric.switch(leaf).tcam
                tcam.remove(tcam.match_keys()[0])
            before = controller.compile_stats()
            result = monitor.poll(force=True)
            assert [incident.switch_uid for incident in result.opened] == degraded
            # Refresh and every localization read the pass's one compile.
            spent = _delta(controller, before)
            assert spent["reuses"] + spent["rebuilds"] + spent["patches"] == 1
        finally:
            monitor.close()

    def test_index_and_rules_of_one_request_are_of_one_policy(self, controller):
        compiled = controller._compiled_rules()
        assert compiled.index is controller.build_index()
        tenant, target, edited = _shared_filter(controller)
        tenant.filters[target.uid] = edited
        moved = controller._compiled_rules()
        assert moved.index is not compiled.index
        assert moved.index.filter(target.uid) is edited
        assert _as_lists(moved.by_switch) == compile_logical_rules(controller.policy)

    def test_a_restored_monitor_holds_the_controllers_index_too(self, controller):
        monitor = NetworkMonitor(controller)
        monitor.start()
        document = monitor.snapshot()
        monitor.close()
        shared = controller.build_index()
        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            assert self._indexes_held(restored) == [shared]
            tenant, target, edited = _shared_filter(controller)
            controller.modify_object(tenant.name, edited)
            controller.clock.tick(5)
            restored.poll(force=True)
            assert restored.stats()["index_patches"] == 1
            assert shared.filter(target.uid) is target
            assert self._indexes_held(restored) == [controller.build_index()]
        finally:
            restored.close()


class TestAccounting:
    def test_audit_spans_and_system_stats_carry_the_counters(self, controller):
        with ScoutSystem(controller) as system:
            system.localize(parallel=True)  # compiles the rules once
            tcam = controller.fabric.switch(sorted(controller.fabric.leaf_uids())[0]).tcam
            tcam.remove(tcam.match_keys()[0])
            before = system.stats()
            collector = TraceCollector()
            system.localize(parallel=True, trace=collector)
            spans = {recorded.name: recorded for recorded in collector.spans()}
            switches = len(controller.fabric.switches)
            idle = {
                "rebuilds": 0,
                "patches": 0,
                "pairs_compared": 0,
                "pairs_recompiled": 0,
                "switches_reassembled": 0,
            }
            assert spans["scout.build_index"].counters == {"reuses": 1, **idle}
            # localize() reads the compile once, for L and the index both.
            assert spans["check.compile_logical"].counters == {"reuses": 0, **idle}
            assert spans["parallel.identity_proof"].counters == {
                "identity_proofs": switches - 1,
                "dispatched": 1,
            }
            after = system.stats()
            assert after["reuses"] - before["reuses"] == 1
            assert after["identity_proofs"] - before["identity_proofs"] == switches - 1
            assert after["dispatched"] - before["dispatched"] == 1

    def test_a_compile_span_counts_its_own_requests_only(self, controller):
        # The service compiles from audit threads and the monitor's poll at
        # once: each is credited with what its own requests cost.
        controller.logical_rules()
        tenant, target, edited = _shared_filter(controller)

        def audit_elsewhere():
            controller.modify_object(tenant.name, edited)
            controller.logical_rules()

        with controller._compile_span("mine") as mine:
            thread = threading.Thread(target=audit_elsewhere)
            thread.start()
            thread.join()
            controller.build_index()
        assert mine == {
            "reuses": 1,
            "rebuilds": 0,
            "patches": 0,
            "pairs_compared": 0,
            "pairs_recompiled": 0,
            "switches_reassembled": 0,
        }
        assert controller.compile_stats()["patches"] == 1

    def test_service_exports_the_counters(self):
        client = TestClient(service_for_profile("small", sync_audits=True))
        try:
            for _ in range(2):
                job = client.post("/audits", json={}).json()["job"]
                assert job["status"] == "done"
            switches = len(client.service.controller.fabric.switches)
            metrics = client.get("/metrics").text
            assert f'repro_audit_work{{counter="identity_proofs"}} {2 * switches}' in metrics
            assert 'repro_audit_work{counter="dispatched"} 0' in metrics
            assert 'repro_audit_work{counter="pairs_recompiled"}' in metrics
            assert 'repro_audit_work{counter="pairs_compared"}' in metrics
            # The monitor's own bootstrap sweep counts its identity proofs
            # too, on its own checker; both audits reused its compile.
            monitor = client.service.monitor
            assert [c.checker.identity_proofs for c in monitor.checkers] == [switches]
            reuses = re.search(r'repro_audit_work\{counter="reuses"\} (\d+)', metrics)
            assert int(reuses.group(1)) >= 3
        finally:
            client.service.close()


class TestConcurrentReaders:
    def test_a_snapshot_is_filed_under_the_policy_its_index_really_saw(
        self, controller, monkeypatch
    ):
        """An edit landing between the validity check and the new index must
        not leave an index of one policy filed under another's tables: every
        index is built from the tables read before the edit — derived, for a
        payload edit and a new uid alike, or cold, for a controller's first —
        and filed under them, so the very next call sees the policy moved on."""
        tenant, target, edited = _shared_filter(controller)
        controller.logical_rules()
        interim = dataclasses.replace(edited, name="interim")

        def racing(build):
            def build_after_a_racing_edit(*args):
                tenant.filters[target.uid] = edited  # another thread's write
                return build(*args)

            return build_after_a_racing_edit

        added = dataclasses.replace(edited, uid="filter:added/one", name="one")
        for extra in ({}, {added.uid: added}):
            tenant.filters[target.uid] = interim
            tenant.filters.update(extra)
            before = controller.compile_stats()
            monkeypatch.setattr(PolicyIndex, "derive", racing(PolicyIndex.derive))
            raced = controller.build_index()
            monkeypatch.undo()
            assert raced.filter(target.uid) is interim
            assert controller.build_index().filter(target.uid) is edited
            assert _delta(controller, before)["patches"] == 2

        tenant.filters[target.uid] = interim
        first = Controller(controller.policy, controller.fabric, validate=False)
        monkeypatch.setattr(
            "repro.controller.controller.PolicyIndex", racing(PolicyIndex)
        )
        raced = first.build_index()
        monkeypatch.undo()
        assert raced.filter(target.uid) is interim
        assert first.build_index().filter(target.uid) is edited
        assert (first.compile_stats()["rebuilds"], first.compile_stats()["patches"]) == (1, 1)

        for version in (interim, target, edited):
            tenant.filters[target.uid] = version
            assert controller.build_index().filter(target.uid) is version
            assert _as_lists(controller.logical_rules()) == compile_logical_rules(
                controller.policy
            )

    def test_localize_checks_and_localizes_one_read_of_the_policy(
        self, controller, monkeypatch
    ):
        """L and the risk model's index come from one read of the live
        policy: an edit landing right after ``localize()`` reads it is the
        next run's, never the check's half of this one."""
        tenant, target, edited = _shared_filter(controller)
        read = Controller._compiled_policy

        def read_then_edit(self):
            compiled = read(self)
            tenant.filters[target.uid] = edited  # another thread's write
            return compiled

        monkeypatch.setattr(Controller, "_compiled_policy", read_then_edit)
        with ScoutSystem(controller) as system:
            report = system.localize()
            assert report.equivalence.equivalent and not report.faulty_objects()
            assert not failed_edges(report.risk_models["controller"])
            after = system.localize()
        assert not after.equivalence.equivalent
        assert target.uid in after.faulty_objects()

    def test_audit_threads_racing_a_policy_writer_never_see_a_mixed_compile(
        self, controller
    ):
        """The snapshot is swapped whole: whatever thread wins, a reader gets
        the compile of one of the policies that existed, and every call is
        accounted as exactly one reuse or one derivation."""
        tenant, target, edited = _shared_filter(controller)
        valid = []
        for version in (target, edited):
            tenant.filters[target.uid] = version
            valid.append(compile_logical_rules(controller.policy))
        calls_per_reader, readers = 60, 6
        failures = []
        stop = threading.Event()
        before = controller.compile_stats()

        def read():
            for _ in range(calls_per_reader):
                if _as_lists(controller.logical_rules()) not in valid:
                    failures.append("mixed compile")

        def write():
            flip = 0
            while not stop.is_set():
                flip ^= 1
                tenant.filters[target.uid] = (target, edited)[flip]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writer = threading.Thread(target=write)
            threads = [threading.Thread(target=read) for _ in range(readers)]
            writer.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            writer.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not writer.is_alive() and not any(t.is_alive() for t in threads)
        assert not failures
        # Whatever the interleaving left behind is filed under the policy it
        # was really built from: the settled policy compiles correctly.
        for version in (target, edited, target):
            tenant.filters[target.uid] = version
            assert _as_lists(controller.logical_rules()) == compile_logical_rules(
                controller.policy
            )
        spent = _delta(controller, before)
        assert (
            spent["reuses"] + spent["rebuilds"] + spent["patches"]
            == readers * calls_per_reader + 3
        )
        assert spent["patches"] >= 1 and spent["rebuilds"] == 0


def _degrade(controller, leaves=3):
    """Drop one rule on each of the first ``leaves`` leaves; returns them."""
    removed = {}
    for leaf in sorted(controller.fabric.leaf_uids())[:leaves]:
        tcam = controller.fabric.switch(leaf).tcam
        removed[leaf] = tcam.remove(tcam.match_keys()[0])
    return removed


def _unattached_endpoint(controller, serial):
    """An edit that moves no rule, no placement and no pair: one more
    endpoint, on no switch, written straight into its tenant's table."""
    epg = next(iter(controller.policy.epgs()))
    tenant = controller.policy.tenant_of(epg.uid)
    uid = f"ep:{tenant.name}/spare-{serial}"
    tenant.endpoints[uid] = Endpoint(uid=uid, name=f"spare-{serial}", epg_uid=epg.uid)


def _pair_up(controller, hits=(), misses=()):
    """A structural edit written straight into a tenant table: one EPG starts
    consuming a contract, so the pairs it forms with that contract's
    providers move — on the leaves hosting either end, and nowhere else.
    The edit is chosen so those leaves include ``hits`` and none of
    ``misses``.  Returns the step that puts the EPG back, and the leaves."""
    index = controller.build_index()
    policy = controller.policy
    epgs = sorted(policy.epgs(), key=lambda epg: epg.uid)
    for consumer in epgs:
        for contract in sorted(policy.contracts(), key=lambda contract: contract.uid):
            partners = [
                epg.uid
                for epg in epgs
                if contract.uid in epg.provides
                and epg.uid != consumer.uid
                and epg.vrf_uid == consumer.vrf_uid
            ]
            if contract.uid in consumer.consumes or not partners:
                continue
            leaves = {
                leaf
                for uid in (consumer.uid, *partners)
                for leaf in index.switches_for_epg(uid)
            }
            if set(hits) <= leaves and not leaves & set(misses):
                tenant = policy.tenant_of(consumer.uid)
                tenant.epgs[consumer.uid] = dataclasses.replace(
                    consumer, consumes=consumer.consumes | {contract.uid}
                )
                return (
                    lambda: tenant.epgs.__setitem__(consumer.uid, consumer),
                    leaves,
                )
    raise AssertionError(f"no such edit: hits={hits}, misses={misses}")


class TestRiskStructureRidesTheIndex:
    def test_a_payload_edit_keeps_the_structure_and_a_structural_edit_drops_it(
        self, controller
    ):
        policy = controller.policy
        leaf, other = sorted(controller.fabric.leaf_uids())[:2]
        first = controller.build_index()
        assert not build_controller_risk_model(policy, index=first).structure_reused
        assert not build_switch_risk_model(first, leaf).structure_reused

        tenant, target, edited = _shared_filter(controller)
        controller.modify_object(tenant.name, edited)
        derived = controller.build_index()
        assert derived is not first and derived.filter(target.uid) is edited
        assert build_controller_risk_model(policy, index=derived).structure_reused
        assert build_switch_risk_model(derived, leaf).structure_reused
        # ... in both directions: what a derived index builds, its source has.
        assert not build_switch_risk_model(derived, other).structure_reused
        assert build_switch_risk_model(first, other).structure_reused

        # A structural edit drops the touched leaf's structure and the
        # fabric's; an untouched leaf keeps its own.
        _pair_up(controller, hits={leaf}, misses={other})
        moved = controller.build_index()
        assert moved is not derived
        cold = build_controller_risk_model(policy, index=moved)
        assert not cold.structure_reused
        fresh = PolicyIndex(policy)
        assert cold.elements() == build_controller_risk_model(policy, index=fresh).elements()
        assert not build_switch_risk_model(moved, leaf).structure_reused
        kept = build_switch_risk_model(moved, other)
        assert kept.structure_reused
        assert kept.elements() == build_switch_risk_model(fresh, other).elements()

    def test_stats_and_spans_say_built_once_then_reused(self, controller):
        _degrade(controller, leaves=2)
        with ScoutSystem(controller) as system:
            monitor = NetworkMonitor(controller)
            monitor.start()
            try:

                def traced(run, name):
                    collector = TraceCollector()
                    with activated(collector):
                        run()
                    return [
                        recorded.attrs["structure"]
                        for recorded in collector.spans()
                        if recorded.name == name
                    ]

                # The monitor's bootstrap localized both leaves already: a
                # switch-scope audit finds their structures on the index.
                assert traced(lambda: system.localize(scope="switch"), "scout.risk_model") == [
                    "reused"
                ]
                assert traced(system.localize, "scout.risk_model") == ["built"]
                before = system.stats()
                assert traced(system.localize, "scout.risk_model") == ["reused"]
                after = system.stats()
                moved = {key for key in after if after[key] != before[key]}
                assert moved <= {"reuses", "identity_proofs", "dispatched", "risk_structures_reused"}
                assert after["risk_structures_reused"] - before["risk_structures_reused"] == 1
                assert (after["risk_structures_built"], after["risk_structures_reused"]) == (1, 3)

                # A derivation that moves a leaf's pairs starts that leaf over,
                # for the monitor and the audit alike; an untouched leaf keeps
                # its structure.
                degraded, untouched = sorted(controller.fabric.leaf_uids())[:2]
                _, touched = _pair_up(controller, hits={degraded}, misses={untouched})
                leaf, rule = next(iter(_degrade(controller, leaves=1).items()))
                assert traced(lambda: monitor.poll(force=True), "monitor.localize") == [
                    "built"
                ] * len(touched)
                controller.fabric.switch(leaf).tcam.install(rule)
                controller.fabric.switch(leaf).tcam.remove(rule.match_key())
                assert traced(lambda: monitor.poll(force=True), "monitor.localize") == ["reused"]
                # The poll rebuilt the touched leaves; the untouched one kept
                # its structure across the derivation.
                built = system.stats()["risk_structures_built"]
                assert traced(lambda: system.localize(scope="switch"), "scout.risk_model") == [
                    "reused"
                ]
                assert system.stats()["risk_structures_built"] == built
            finally:
                monitor.close()

    def test_an_audit_and_a_poll_localizing_at_once_agree_with_the_serial_run(
        self, controller
    ):
        """Structures are published by one assignment and never written
        again: an audit thread and the monitor's poll racing to build them on
        a fresh index each get complete ones, and nothing one of them marks
        or prunes shows in the other's model."""
        removed = _degrade(controller)
        rounds = 6
        with ScoutSystem(controller) as system:
            monitor = NetworkMonitor(controller)
            monitor.start()
            try:
                expected = {
                    "controller": system.localize().hypothesis.to_dict(),
                    "switch": {
                        leaf: hypothesis.to_dict()
                        for leaf, hypothesis in system.localize(scope="switch").per_switch.items()
                    },
                    "suspects": {
                        leaf: monitor.store.active_for(leaf).suspects for leaf in removed
                    },
                }
                assert all(expected["suspects"].values())
                seen, failures = [], []

                def guarded(run):
                    def target():
                        try:
                            run()
                        except BaseException as exc:  # noqa: BLE001 - reported below
                            failures.append(exc)

                    return threading.Thread(target=target)

                def audit():
                    report = system.localize(scope="switch")
                    seen.append(
                        (
                            "switch",
                            {leaf: hyp.to_dict() for leaf, hyp in report.per_switch.items()},
                        )
                    )
                    seen.append(("controller", system.localize().hypothesis.to_dict()))

                def poll():
                    result = monitor.poll(force=True)
                    assert sorted(result.switches_rechecked) == sorted(removed)
                    seen.append(
                        (
                            "suspects",
                            {leaf: monitor.store.active_for(leaf).suspects for leaf in removed},
                        )
                    )

                built = system.stats()["risk_structures_built"]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for serial in range(rounds):
                        # An index with no fabric-wide structure — a pair
                        # added and taken away again — and every degraded
                        # leaf dirty again, before either thread starts.
                        undo, _ = _pair_up(controller)
                        controller.build_index()
                        undo()
                        for leaf, rule in removed.items():
                            tcam = controller.fabric.switch(leaf).tcam
                            tcam.install(rule)
                            tcam.remove(rule.match_key())
                        threads = [guarded(run) for run in (audit, poll)]
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join(timeout=60)
                        assert not any(thread.is_alive() for thread in threads)
                finally:
                    sys.setswitchinterval(interval)
                assert not failures
                assert len(seen) == 3 * rounds
                assert all(result == expected[kind] for kind, result in seen)
                assert system.stats()["risk_structures_built"] - built >= rounds
                # And none of those marks outlives its audit: repaired, the
                # fabric reads clean on the structures all of them shared.
                for leaf, rule in removed.items():
                    controller.fabric.switch(leaf).tcam.install(rule)
                healthy = system.localize()
                assert healthy.consistent
                assert not healthy.risk_models["controller"].failure_signature()
                assert monitor.poll(force=True).resolved
            finally:
                monitor.close()
