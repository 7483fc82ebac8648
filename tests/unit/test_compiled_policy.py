"""The controller's compiled policy: what is reused, when, and by whom.

``Controller.build_index()`` / ``logical_rules()`` are served from one
snapshot that is compared with the tenants' live object tables on every
call.  These tests pin the contract around that: a repeat call reuses, any
edit (through the controller or behind its back) is seen by the very next
call, an edit recompiles its own pairs and switches only, and nothing the
cache hands out can be used to change what the next caller gets.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import Controller
from repro.controller.compiler import compile_logical_rules
from repro.core import ScoutSystem
from repro.obs import TraceCollector
from repro.online import NetworkMonitor
from repro.policy.graph import PolicyIndex
from repro.policy.objects import FilterEntry, ObjectType
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
        assert _delta(controller, before) == {
            "reuses": 0,
            "rebuilds": 1,
            "pairs_recompiled": len(pairs),
            "switches_reassembled": len(switches),
        }
        assert controller.build_index() is not old_index

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

    def test_the_shared_index_refuses_in_place_patches(self, controller):
        index = controller.build_index()
        tenant, target, edited = _shared_filter(controller)
        tenant.filters[target.uid] = edited
        with pytest.raises(TypeError, match="read-only"):
            index.refresh_object(target.uid, ObjectType.FILTER)
        assert index.filter(target.uid) is target
        # Lookups hand out copies.
        index.pairs.clear()
        index.pairs_on_switch(index.all_switches()[0]).clear()
        assert index.pairs and index.pairs_on_switch(index.all_switches()[0])
        # A private index still patches.
        assert PolicyIndex(controller.policy).refresh_object(target.uid, ObjectType.FILTER)


class TestMonitorDoesNotAliasTheSharedIndex:
    def test_monitor_absorbs_a_filter_modify_without_touching_the_controllers_index(
        self, controller
    ):
        held = controller.build_index()
        controller.logical_rules()
        monitor = NetworkMonitor(controller)
        monitor.start()
        try:
            checker = monitor.checkers[0]
            assert checker.index is not held
            tenant, target, edited = _shared_filter(controller)
            controller.modify_object(tenant.name, edited)
            controller.clock.tick(5)
            monitor.poll(force=True)
            assert checker.stats()["index_patches"] == 1
            # The monitor patched its own index in place; the one the
            # controller handed out earlier is still the policy it indexed.
            assert checker.index.filter(target.uid) is edited
            assert held.filter(target.uid) is target
            assert _as_lists(controller.logical_rules()) == compile_logical_rules(
                controller.policy
            )
            assert controller.build_index().filter(target.uid) is edited
        finally:
            monitor.close()

    def test_a_restored_monitor_patches_a_private_index_too(self, controller):
        monitor = NetworkMonitor(controller)
        monitor.start()
        document = monitor.snapshot()
        monitor.close()
        shared = controller.build_index()
        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            assert restored.checkers[0].index is not shared
            tenant, target, edited = _shared_filter(controller)
            controller.modify_object(tenant.name, edited)
            controller.clock.tick(5)
            restored.poll(force=True)
            assert restored.checkers[0].stats()["index_patches"] == 1
            assert shared.filter(target.uid) is target
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
            idle = {"rebuilds": 0, "pairs_recompiled": 0, "switches_reassembled": 0}
            assert spans["scout.build_index"].counters == {"reuses": 1, **idle}
            assert spans["check.compile_logical"].counters == {"reuses": 1, **idle}
            assert spans["parallel.identity_proof"].counters == {
                "identity_proofs": switches - 1,
                "dispatched": 1,
            }
            after = system.stats()
            assert after["reuses"] - before["reuses"] == 2
            assert after["identity_proofs"] - before["identity_proofs"] == switches - 1
            assert after["dispatched"] - before["dispatched"] == 1

    def test_service_exports_the_counters(self):
        client = TestClient(service_for_profile("small", sync_audits=True))
        try:
            for _ in range(2):
                job = client.post("/audits", json={"parallel": True}).json()["job"]
                assert job["status"] == "done"
            switches = len(client.service.controller.fabric.switches)
            metrics = client.get("/metrics").text
            assert f'repro_audit_work{{counter="identity_proofs"}} {2 * switches}' in metrics
            assert 'repro_audit_work{counter="dispatched"} 0' in metrics
            assert 'repro_audit_work{counter="pairs_recompiled"}' in metrics
            memo = client.get("/health").json()["components"]["memo-cache"]
            assert memo["status"] == "ok"
            # The two audits plus the monitor's own bootstrap sweep: the
            # serial path counts its identity proofs too.
            assert memo["metrics"]["identity_proofs"] == 3 * switches
            assert memo["metrics"]["compiled_policy_reuses"] >= 3
        finally:
            client.service.close()


class TestConcurrentReaders:
    def test_a_snapshot_is_filed_under_the_policy_its_index_really_saw(
        self, controller, monkeypatch
    ):
        """An edit landing between the validity check and the re-index must
        not leave an index of the new policy filed under the old tables."""
        tenant, target, edited = _shared_filter(controller)
        controller.logical_rules()
        interim = dataclasses.replace(edited, name="interim")
        tenant.filters[target.uid] = interim

        def index_after_a_racing_edit(policy):
            tenant.filters[target.uid] = edited  # another thread's write
            return PolicyIndex(policy)

        monkeypatch.setattr(
            "repro.controller.controller.PolicyIndex", index_after_a_racing_edit
        )
        assert controller.build_index().filter(target.uid) is edited
        monkeypatch.undo()
        for version in (interim, target, edited):
            tenant.filters[target.uid] = version
            assert controller.build_index().filter(target.uid) is version
            assert _as_lists(controller.logical_rules()) == compile_logical_rules(
                controller.policy
            )

    def test_audit_threads_racing_a_policy_writer_never_see_a_mixed_compile(
        self, controller
    ):
        """The snapshot is swapped whole: whatever thread wins, a reader gets
        the compile of one of the policies that existed, and every call is
        accounted as exactly one reuse or one rebuild."""
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
        assert spent["reuses"] + spent["rebuilds"] == readers * calls_per_reader + 3
        assert spent["rebuilds"] >= 1
