"""Unit tests for the incremental equivalence checker (blast-radius rechecks)."""

import pytest

from repro import Controller
from repro.core import ScoutSystem
from repro.exceptions import VerificationError
from repro.experiments import restore_tcam, snapshot_tcam
from repro.fabric.tcam import TcamTable
from repro.faults import FaultInjector
from repro.obs import TraceCollector
from repro.online import IncrementalChecker
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker, RuleSpace
from repro.workloads import generate_workload


def checker_for(scenario) -> IncrementalChecker:
    delta = IncrementalChecker(scenario.controller)
    delta.bootstrap()
    return delta


class TestBootstrapAndDigests:
    def test_bootstrap_is_clean_on_healthy_deployment(self, three_tier):
        delta = checker_for(three_tier)
        report = delta.report()
        assert report.equivalent
        assert delta.full_checks == 1
        assert delta.stats()["dirty_switches"] == 0

    def test_refresh_without_bootstrap_bootstraps(self, three_tier):
        delta = IncrementalChecker(three_tier.controller)
        refreshed = delta.refresh()
        assert set(refreshed) == set(three_tier.fabric.leaf_uids())
        assert delta.full_checks == 1


class TestSwitchEvents:
    def test_unknown_switch_uid_yields_no_fabricated_result(self, three_tier):
        delta = checker_for(three_tier)
        refreshed = delta.refresh(switch_uids=["leaf-404"])
        assert refreshed == {}
        assert "leaf-404" not in delta.report().results
        assert delta.stats()["dirty_switches"] == 0

    def test_rule_loss_rechecks_only_that_switch(self, three_tier):
        delta = checker_for(three_tier)
        switch = three_tier.fabric.switch("leaf-2")
        lost = switch.tcam.remove_where(lambda rule: True)
        assert lost
        delta.note_switch_change("leaf-2")
        refreshed = delta.refresh()
        assert set(refreshed) == {"leaf-2"}
        result = refreshed["leaf-2"]
        assert not result.equivalent
        assert len(result.missing_rules) == len(lost)
        assert not delta.report().equivalent
        assert delta.report().results["leaf-2"].missing_rules == result.missing_rules

    def test_repair_short_circuits_through_the_digest(self, three_tier):
        delta = checker_for(three_tier)
        switch = three_tier.fabric.switch("leaf-2")
        switch.tcam.remove_where(lambda rule: True)
        delta.note_switch_change("leaf-2")
        delta.refresh()
        engine_checks, identity = delta.switch_checks, delta.digest_short_circuits
        switch.sync_tcam()
        delta.note_switch_change("leaf-2")
        refreshed = delta.refresh()
        assert refreshed["leaf-2"].equivalent
        # No engine ran: the identity proof settled the repaired leaf.
        assert delta.switch_checks == engine_checks
        assert delta.digest_short_circuits == identity + 1
        assert delta.report().equivalent

    def test_storm_refresh_never_re_derives_a_match_key(self, deployed_tiny, monkeypatch):
        """Half a leaf's TCAM gone: both sides' key sets come off the dicts
        that already hold them — once per refresh, not once per rule."""
        _, controller = deployed_tiny
        delta = IncrementalChecker(controller)
        delta.bootstrap()
        leaf = max(controller.fabric.leaf_uids(), key=lambda uid: len(controller.fabric.switch(uid).tcam))
        tcam = controller.fabric.switch(leaf).tcam
        keys = tcam.match_keys()
        dropped = set(keys[::2])
        assert len(dropped) > 10
        tcam.remove_where(lambda rule: rule.match_key() in dropped)
        delta.note_switch_change(leaf)

        calls = []
        derive = TcamRule.match_key
        monkeypatch.setattr(
            TcamRule, "match_key", lambda rule: calls.append(rule) or derive(rule)
        )
        result = delta.refresh()[leaf]
        monkeypatch.undo()
        assert calls == []
        assert not result.equivalent and result.engine == "ap"
        assert {rule.match_key() for rule in result.missing_rules} == dropped
        # Same verdict, rules and order as a from-scratch check of that leaf.
        fresh = EquivalenceChecker().check_switch(
            leaf, controller.logical_rules()[leaf], tcam.rules()
        )
        assert result == fresh

    def test_invalid_rule_on_both_sides_is_not_a_clean_digest(self, three_tier):
        """The digest short-circuit validates like the engines do: a key the
        rule space cannot hold raises even when L and T agree on it."""
        narrow = EquivalenceChecker(rule_space=RuleSpace(port_bits=10))
        delta = IncrementalChecker(three_tier.controller, checker=narrow)
        delta.bootstrap()
        filter_uid = three_tier.uids["filter_extra_0"]
        widened = Filter(
            uid=filter_uid,
            name="port700",
            entries=(
                FilterEntry(protocol="tcp", port=700),
                FilterEntry(protocol="tcp", port=2000),
            ),
        )
        three_tier.controller.modify_object("webshop", widened, detail="port 2000")
        three_tier.controller.deploy()
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        with pytest.raises(VerificationError, match="port value 2000"):
            delta.refresh()


class TestIncrementalBatching:
    def test_a_proved_switch_takes_one_key_delta(self, three_tier, monkeypatch):
        """One check_switch per switch not reused: the key delta that finds
        an identity proof is the one the engine is scoped by."""
        delta = checker_for(three_tier)
        tcam = three_tier.fabric.switch("leaf-2").tcam
        tcam.write([tcam.match_keys()[0]], {})
        calls = []
        key_delta = EquivalenceChecker._key_delta

        def counted(checker, logical, deployed):
            calls.append(checker)
            return key_delta(checker, logical, deployed)

        monkeypatch.setattr(EquivalenceChecker, "_key_delta", counted)
        refreshed = delta.refresh(switch_uids=three_tier.fabric.leaf_uids())
        assert [uid for uid, result in refreshed.items() if not result.equivalent] == [
            "leaf-2"
        ]
        assert (delta.digest_short_circuits, delta.switch_checks) == (2, 1)
        assert len(calls) == 3

    def test_batched_refresh_keeps_digest_short_circuits(self, deployed_tiny):
        _, controller = deployed_tiny
        tcam = controller.fabric.switch(controller.fabric.leaf_uids()[0]).tcam
        tcam.write([tcam.match_keys()[0]], {})
        checker = IncrementalChecker(controller)
        report = checker.bootstrap()
        clean = [uid for uid, result in report.results.items() if result.equivalent]
        assert clean and len(clean) < len(report.results)
        for uid in clean:
            checker.note_switch_change(uid)
        engine_checks = checker.switch_checks
        identity = checker.digest_short_circuits
        results = checker.refresh()
        assert set(results) == set(clean)
        assert all(result.equivalent for result in results.values())
        # No engine ran: every clean leaf was settled by the identity proof.
        assert checker.switch_checks == engine_checks
        assert checker.digest_short_circuits == identity + len(clean)


class TestFoldedKeyDelta:
    """A switch proved before against the same L, whose TCAM handed out its
    T right after the proved one, folds the TCAM's recorded change into the
    held key delta; every other switch takes the delta over its keys."""

    def test_faults_after_a_restore_fold_on_every_faulted_leaf(self, deployed_tiny):
        _, controller = deployed_tiny
        fabric = controller.fabric
        snapshot = snapshot_tcam(fabric)
        system = ScoutSystem(controller)
        system.check()  # the bootstrap sweep: no memo
        system.check()  # every leaf proved over its keys
        full = system.stats()["full_deltas"]
        assert full == len(fabric.switches)
        for seed in (1, 2, 3):
            restore_tcam(fabric, snapshot)
            writes = {uid: switch.tcam.writes for uid, switch in fabric.switches.items()}
            FaultInjector(controller).inject_random_faults(2, seed=seed)
            faulted = {
                uid for uid, switch in fabric.switches.items() if switch.tcam.writes != writes[uid]
            }
            assert faulted
            collector = TraceCollector()
            report = system.check(trace=collector)
            checks = {
                span.attrs["switch"]: span.counters
                for span in collector.spans()
                if span.name == "check.switch"
            }
            assert faulted <= set(checks)
            assert all(counters.get("folded_deltas") == 1 for counters in checks.values())
            assert not any("full_deltas" in counters for counters in checks.values())
            assert system.stats()["full_deltas"] == full
            fresh = ScoutSystem(controller).check()
            assert report.semantic_fingerprint() == fresh.semantic_fingerprint()

    def test_a_recompiled_l_takes_the_full_delta(self, three_tier):
        delta = checker_for(three_tier)
        leaves = three_tier.fabric.leaf_uids()
        delta.refresh(switch_uids=leaves)
        assert (delta.folded_deltas, delta.full_deltas) == (0, len(leaves))
        # leaf-2's TCAM records a change, but its L is recompiled too.
        tcam = three_tier.fabric.switch("leaf-2").tcam
        tcam.write([tcam.match_keys()[0]], {})
        filter_uid = three_tier.uids["filter_extra_0"]
        widened = Filter(
            uid=filter_uid,
            name="port700",
            entries=(FilterEntry(protocol="tcp", port=700), FilterEntry(protocol="tcp", port=701)),
        )
        three_tier.controller.modify_object("webshop", widened, detail="add port 701")
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        refreshed = delta.refresh()
        assert set(refreshed) == {"leaf-2", "leaf-3"}
        stats = delta.stats()
        assert (stats["folded_deltas"], stats["full_deltas"]) == (0, len(leaves) + 2)
        # The next write to leaf-2 against the same L folds.
        tcam.write([tcam.match_keys()[0]], {})
        delta.note_switch_change("leaf-2")
        assert not delta.refresh()["leaf-2"].equivalent
        assert (delta.folded_deltas, delta.full_deltas) == (1, len(leaves) + 2)
        fresh = EquivalenceChecker().check_network(
            three_tier.controller.logical_rules(),
            three_tier.controller.collect_deployed_rules(),
        )
        assert delta.report().semantic_fingerprint() == fresh.semantic_fingerprint()

    def test_a_fresh_system_check_never_folds(self, deployed_tiny):
        """The oracle a benchmark's final check and a churn checkpoint use:
        a new system's first audit is the bootstrap sweep, from scratch."""
        _, controller = deployed_tiny
        system = ScoutSystem(controller)
        system.check()
        system.check()
        FaultInjector(controller).inject_random_faults(2, seed=7)
        assert system.check().semantic_fingerprint() == (
            ScoutSystem(controller).check().semantic_fingerprint()
        )
        assert system.stats()["folded_deltas"] > 0
        fresh = ScoutSystem(controller)
        fresh.check()
        assert (fresh.stats()["folded_deltas"], fresh.stats()["full_deltas"]) == (0, 0)
        assert fresh.checker.identity_proofs + fresh.checker.dispatched == len(
            controller.fabric.switches
        )

    def test_a_table_nobody_read_keeps_no_record(self, tiny_profile, monkeypatch):
        """A deployment writes every table before anyone reads one: none of
        those writes pays for a record."""
        recorded = []
        record = TcamTable._record
        monkeypatch.setattr(
            TcamTable,
            "_record",
            lambda table, gone, put: recorded.append(table) or record(table, gone, put),
        )
        workload = generate_workload(tiny_profile)
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        tcam = controller.fabric.switch(controller.fabric.leaf_uids()[0]).tcam
        first_key, second_key = tcam.match_keys()[:2]
        tcam.write([first_key], {})
        assert recorded == []
        first = tcam.rule_sequence()
        assert first.change_since(first) is None  # it follows nothing
        tcam.write([second_key], {})
        assert recorded == [tcam]
        second = tcam.rule_sequence()
        assert second.change_since(first) == (set(), {second_key})
        # Only the sequence handed out right before names it.
        tcam.write((), {second_key: TcamRule(*second_key)})
        assert tcam.rule_sequence().change_since(first) is None


class TestPolicyBlastRadius:
    def test_filter_change_dirties_only_dependent_switches(self, three_tier):
        delta = checker_for(three_tier)
        # port700 is only used by the App-DB contract: pairs on leaf-2/leaf-3.
        filter_uid = three_tier.uids["filter_extra_0"]
        flt = Filter(
            uid=filter_uid,
            name="port700",
            entries=(FilterEntry(protocol="tcp", port=700), FilterEntry(protocol="tcp", port=701)),
        )
        three_tier.controller.modify_object("webshop", flt, detail="add port 701")
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        refreshed = delta.refresh()
        assert set(refreshed) == {"leaf-2", "leaf-3"}
        # The deployed state is now stale on both switches.
        assert all(not result.equivalent for result in refreshed.values())
        # Redeploying repairs them.
        three_tier.controller.deploy(record_initial_changes=False)
        delta.note_switch_change("leaf-2")
        delta.note_switch_change("leaf-3")
        refreshed = delta.refresh()
        assert all(result.equivalent for result in refreshed.values())

    def test_deleted_object_blast_radius_uses_the_old_index(self, three_tier):
        delta = checker_for(three_tier)
        filter_uid = three_tier.uids["filter_extra_0"]
        tenant = three_tier.policy.tenants["webshop"]
        flt = tenant.filters[filter_uid]
        three_tier.controller.delete_object("webshop", flt, detail="drop filter")
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        refreshed = delta.refresh()
        # The new index no longer knows the filter; the pre-change index
        # still resolved its dependents.
        assert set(refreshed) == {"leaf-2", "leaf-3"}

    def test_unknown_object_is_harmless(self, three_tier):
        delta = checker_for(three_tier)
        delta.note_policy_change("filter:webshop/never-existed", ObjectType.FILTER)
        assert delta.refresh() == {}

    def test_filter_modify_takes_the_index_patch_fast_path(self, three_tier):
        delta = checker_for(three_tier)
        filter_uid = three_tier.uids["filter_extra_0"]
        flt = Filter(
            uid=filter_uid,
            name="port700",
            entries=(FilterEntry(protocol="tcp", port=700), FilterEntry(protocol="tcp", port=702)),
        )
        three_tier.controller.modify_object("webshop", flt, detail="widen filter")
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        refreshed = delta.refresh()
        # Same blast radius and verdict as the rebuild path ...
        assert set(refreshed) == {"leaf-2", "leaf-3"}
        assert all(not result.equivalent for result in refreshed.values())
        # ... but the controller derived its index from the held one (what
        # this checker's compile request cost it), it did not re-index.
        assert delta.index_patches == 1
        assert delta.index_rebuilds == 0
        assert three_tier.controller.compile_stats()["patches"] == 1
        # The new logical rules picked up the widened filter.
        ports = {
            rule.port
            for rule in three_tier.controller.logical_rules()["leaf-3"]
            if rule.filter_uid == filter_uid
        }
        assert 702 in ports

    def test_add_operation_derives_the_index_too(self, three_tier):
        delta = checker_for(three_tier)
        before = three_tier.controller.compile_stats()
        flt = Filter(
            uid="filter:webshop/new-port",
            name="new-port",
            entries=(FilterEntry(protocol="tcp", port=900),),
        )
        three_tier.controller.add_object("webshop", flt, detail="brand new filter")
        delta.note_policy_change(flt.uid, ObjectType.FILTER)
        delta.refresh()
        assert delta.index_rebuilds == 0
        assert delta.index_patches == 1
        # No contract lists the new filter: no pair moved, none compared.
        after = three_tier.controller.compile_stats()
        assert after["pairs_compared"] == before["pairs_compared"]
        assert after["pairs_recompiled"] == before["pairs_recompiled"]

    def test_endpoint_change_dirties_epg_switches(self, three_tier):
        delta = checker_for(three_tier)
        endpoint_uid = three_tier.uids["ep_app"]
        delta.note_policy_change(endpoint_uid, ObjectType.ENDPOINT)
        refreshed = delta.refresh()
        # The App EPG's endpoint lives on leaf-2.
        assert "leaf-2" in set(refreshed)
