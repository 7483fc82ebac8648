"""Unit tests for the incremental equivalence checker (blast-radius rechecks)."""

import pytest

from repro.exceptions import VerificationError
from repro.online import IncrementalChecker
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker, RuleSpace


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
        engine_checks = delta.switch_checks
        switch.sync_tcam()
        delta.note_switch_change("leaf-2")
        refreshed = delta.refresh()
        assert refreshed["leaf-2"].equivalent
        assert refreshed["leaf-2"].engine == "digest"
        assert delta.switch_checks == engine_checks  # no engine run needed
        assert delta.digest_short_circuits >= 1
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
