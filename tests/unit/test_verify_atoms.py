"""Unit tests for the atomic-predicate engine (AtomTable + checker backend)."""

import pytest

from repro.exceptions import VerificationError
from repro.online import IncrementalChecker
from repro.parallel.memo import WORKER_CACHE, CompiledStateCache, reset_worker_cache
from repro.policy.objects import Filter, FilterEntry, ObjectType
from repro.rules import RuleSequence, TcamRule
from repro.verify import AtomTable, EquivalenceChecker, RuleSpace


def _rule(port, protocol="tcp", vrf=1, src=10, dst=20, action="allow"):
    return TcamRule(
        vrf_scope=vrf,
        src_epg=src,
        dst_epg=dst,
        protocol=protocol,
        port=port,
        action=action,
    )


def _observe(table, rules):
    return table.observe_keys(rule.match_key() for rule in rules)


class TestAtomTable:
    def test_observation_grows_then_settles(self):
        table = AtomTable()
        # tcp + udp + two ports → four new classes.
        assert _observe(table, [_rule(80), _rule(443, protocol="udp")]) == 4
        version = table.version
        assert table.patches == 1
        # Re-observing the same rules is a pure no-op patch.
        assert _observe(table, [_rule(80), _rule(443, protocol="udp")]) == 0
        assert table.version == version
        assert table.noop_observations == 1

    def test_deny_rules_are_not_observed(self):
        table = AtomTable()
        _observe(table, [_rule(80, action="deny")])
        assert table.version == 0
        assert table.atom_count() == 1  # only the "other" × "other" cell

    def test_invalid_values_raise_like_the_bdd_encoder(self):
        table = AtomTable()
        with pytest.raises(VerificationError):
            _observe(table, [_rule(80, protocol="sctp")])
        with pytest.raises(VerificationError):
            _observe(table, [_rule(1 << 16)])
        with pytest.raises(VerificationError):
            _observe(table, [_rule(80, vrf=1 << 13)])

    def test_stats_shape(self):
        table = AtomTable()
        _observe(table, [_rule(80)])
        stats = table.stats()
        assert stats["version"] == 2  # tcp + port 80
        assert stats["protocol_classes"] == 2
        assert stats["port_classes"] == 2
        assert stats["atoms_per_triple"] == 4
        assert stats["patches"] == 1

    def test_refinement_never_changes_a_verdict(self):
        """A table pre-refined by unrelated rules reports identically."""
        logical = [_rule(80), _rule(None, protocol="any")]
        deployed = [_rule(80)]
        fresh = EquivalenceChecker(engine="ap")
        fresh_result = fresh.check_switch("s", logical, deployed)

        refined_table = AtomTable()
        _observe(
            refined_table,
            [
                _rule(p, protocol=proto, vrf=9, src=9, dst=9)
                for p in range(300, 340)
                for proto in ("tcp", "udp", "icmp")
            ],
        )
        refined = EquivalenceChecker(engine="ap", atoms=refined_table)
        refined_result = refined.check_switch("s", logical, deployed)
        assert fresh_result.equivalent == refined_result.equivalent
        assert fresh_result.missing_rules == refined_result.missing_rules
        assert fresh_result.extra_rules == refined_result.extra_rules


    @pytest.mark.parametrize("first", ["regions", "select_keys"])
    def test_a_refined_table_answers_as_one_grown_at_once(self, first):
        """``regions`` and ``select_keys`` read the bit cache inline: the
        first to run after ``observe_keys`` refined the table must refresh
        the masks before it reads a bitset cached under the old ones."""
        before = [_rule(80), _rule(None), _rule(53, protocol="udp"), _rule(80, protocol="any")]
        added = [_rule(443), _rule(None, protocol="icmp", dst=21), _rule(8080, protocol="udp")]
        old_keys = [rule.match_key() for rule in before]
        keys = old_keys + [rule.match_key() for rule in added]
        grown = AtomTable()  # the same classes, in the same order
        grown.observe_keys(keys)
        regions = grown.regions(keys)
        # L holds everything, T the tcp/80 and any-port rules: L - T.
        difference = grown.diff_regions(regions, grown.regions(old_keys[:2]))

        refined = AtomTable()
        refined.observe_keys(old_keys)
        refined.select_keys(old_keys, refined.regions(old_keys))  # cache filled
        assert refined.observe_keys(keys) > 0
        if first == "regions":
            assert refined.regions(keys) == regions
        selected = refined.select_keys(keys, difference)
        assert selected == grown.select_keys(keys, difference)
        assert refined.regions(keys) == regions


class TestApEngine:
    def test_wildcard_subsumption_matches_bdd(self):
        # A deployed wildcard covers the more specific logical rules: the
        # hash engine would flag these, the AP engine must not.
        logical = [_rule(80), _rule(443)]
        deployed = [_rule(None)]
        bdd = EquivalenceChecker(engine="bdd").check_switch("s", logical, deployed)
        ap = EquivalenceChecker(engine="ap").check_switch("s", logical, deployed)
        assert bdd.equivalent is False and ap.equivalent is False
        assert ap.missing_rules == bdd.missing_rules == []
        # The wildcard allows more than the policy: it is the extra rule.
        assert ap.extra_rules == bdd.extra_rules == deployed

    def test_wildcard_equals_full_enumeration_of_the_domain(self):
        # With a 1-bit port field, {0, 1} enumerates the whole domain and is
        # semantically identical to the wildcard — the "other" atom class is
        # empty and must not leak into the wildcard's bitset.
        space = RuleSpace(vrf_bits=2, epg_bits=2, protocol_bits=2, port_bits=1)
        logical = [_rule(None, vrf=1, src=1, dst=1)]
        deployed = [_rule(0, vrf=1, src=1, dst=1), _rule(1, vrf=1, src=1, dst=1)]
        for engine in ("bdd", "ap"):
            result = EquivalenceChecker(rule_space=space, engine=engine).check_switch(
                "s", logical, deployed
            )
            assert result.equivalent, engine

    def test_shadowed_duplicates_match_bdd(self):
        logical = [_rule(80), _rule(80), _rule(None)]
        deployed = [_rule(None)]
        bdd = EquivalenceChecker(engine="bdd").check_switch("s", logical, deployed)
        ap = EquivalenceChecker(engine="ap").check_switch("s", logical, deployed)
        assert ap.equivalent is bdd.equivalent is True

    def test_report_semantic_fingerprint_identity(self):
        logical = {
            "leaf-1": [_rule(80), _rule(None, protocol="udp")],
            "leaf-2": [_rule(22, protocol="any")],
        }
        deployed = {
            "leaf-1": [_rule(80)],
            "leaf-2": [_rule(22, protocol="tcp")],
        }
        bdd = EquivalenceChecker(engine="bdd").check_network(logical, deployed)
        ap = EquivalenceChecker(engine="ap").check_network(logical, deployed)
        assert ap.semantic_fingerprint() == bdd.semantic_fingerprint()


class TestSharedLogicalSequences:
    """One compiled L sequence is read by several checkers (the audit
    system's, each monitor partition's): each folds it in once."""

    def test_alternating_checkers_fold_one_sequence_once_each(self):
        logical = RuleSequence([_rule(80), _rule(443), _rule(None, protocol="udp")])
        deployed = RuleSequence([_rule(80), _rule(443)])
        checkers = [EquivalenceChecker(), EquivalenceChecker()]

        def observations():
            return [c.atoms.patches + c.atoms.noop_observations for c in checkers]

        for checker in checkers:
            assert not checker.check_switch("s", logical, deployed).equivalent
        settled = observations()
        for _ in range(3):
            for checker in checkers:
                assert not checker.check_switch("s", logical, deployed).equivalent
            # The one observation a repeat check still makes is the per-call
            # T - L validation; L is not folded in again by either side.
            previous, settled = settled, observations()
            assert settled == [count + 1 for count in previous]

    def test_an_invalid_key_raises_from_every_checker_that_sees_the_sequence(self):
        logical = RuleSequence([_rule(80), _rule(70000)])
        deployed = RuleSequence([_rule(80)])
        for checker in (EquivalenceChecker(), EquivalenceChecker()):
            for _ in range(2):
                with pytest.raises(VerificationError):
                    checker.check_switch("s", logical, deployed)
        assert not logical.observed_by  # nobody vouched for it


class TestIncrementalAtomPatching:
    def _delta_for(self, scenario):
        delta = IncrementalChecker(
            scenario.controller, checker=EquivalenceChecker(engine="ap")
        )
        delta.bootstrap()
        return delta

    def test_table_persists_across_refreshes(self, three_tier):
        delta = self._delta_for(three_tier)
        table = delta.checker.atoms
        assert table.version > 0  # the bootstrap observed the fabric
        switch = three_tier.fabric.switch("leaf-2")
        switch.tcam.remove_where(lambda rule: True)
        delta.note_switch_change("leaf-2")
        delta.refresh()
        # Same table object, no new values → no new atoms.
        assert delta.checker.atoms is table
        assert table.version == delta.stats()["atom_version"]
        assert delta.stats()["atom_patches"] == table.patches

    def test_policy_add_and_modify_patch_new_port_classes(self, three_tier):
        delta = self._delta_for(three_tier)
        table = delta.checker.atoms
        version = table.version
        flt = Filter(
            uid="filter:webshop/new-port",
            name="new-port",
            entries=(FilterEntry(protocol="tcp", port=900),),
        )
        three_tier.controller.add_object("webshop", flt, detail="brand new filter")
        delta.note_policy_change(flt.uid, ObjectType.FILTER)
        # No contract references the new filter yet: nothing to re-check,
        # nothing observed, the table is untouched.
        assert delta.refresh() == {}
        assert table.version == version
        # Widening an in-use filter to a never-seen port patches exactly one
        # new class into the same long-lived table (never a rebuild).
        filter_uid = three_tier.uids["filter_extra_0"]
        patches = table.patches
        widened = Filter(
            uid=filter_uid,
            name="port700",
            entries=(
                FilterEntry(protocol="tcp", port=700),
                FilterEntry(protocol="tcp", port=702),
            ),
        )
        three_tier.controller.modify_object("webshop", widened, detail="widen filter")
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        refreshed = delta.refresh()
        assert set(refreshed) == {"leaf-2", "leaf-3"}
        assert delta.checker.atoms is table
        assert table.version == version + 1
        assert table.patches == patches + 1

    def test_policy_modify_and_remove_reuse_the_table(self, three_tier):
        delta = self._delta_for(three_tier)
        table = delta.checker.atoms
        filter_uid = three_tier.uids["filter_extra_0"]
        flt = Filter(
            uid=filter_uid,
            name="port700",
            entries=(
                FilterEntry(protocol="tcp", port=700),
                FilterEntry(protocol="tcp", port=701),
            ),
        )
        three_tier.controller.modify_object("webshop", flt, detail="add port 701")
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        delta.refresh()
        version_after_modify = table.version
        assert delta.checker.atoms is table
        # Deleting the filter removes rules — atoms are monotone, nothing
        # shrinks, and no new classes appear for a pure removal.
        tenant = three_tier.policy.tenants["webshop"]
        three_tier.controller.delete_object(
            "webshop", tenant.filters[filter_uid], detail="drop filter"
        )
        delta.note_policy_change(filter_uid, ObjectType.FILTER)
        delta.refresh()
        assert delta.checker.atoms is table
        assert table.version == version_after_modify


class TestWorkerAtomTables:
    def test_cache_keeps_one_table_per_space(self):
        cache = CompiledStateCache()
        widths = (13, 15, 2, 16)
        table = cache.atom_table(widths)
        assert cache.atom_table(widths) is table
        assert cache.atom_table((2, 2, 2, 1)) is not table

    def test_a_shard_folds_what_it_checks_into_the_worker_table(self):
        reset_worker_cache()
        checker = EquivalenceChecker()
        checker.check_many([("s", [_rule(80), _rule(443)], [_rule(80)])])
        (table,) = WORKER_CACHE._atom_tables.values()
        assert table is not checker.atoms
        assert table.stats()["port_classes"] == 3  # other, 80, 443
        # A repeat is answered from the memo: nothing is observed again.
        observations = table.patches + table.noop_observations
        checker.check_many([("s", [_rule(80), _rule(443)], [_rule(80)])])
        assert table.patches + table.noop_observations == observations

    def test_clear_drops_tables(self):
        cache = CompiledStateCache()
        cache.atom_table((13, 15, 2, 16)).observe_keys([_rule(80).match_key()])
        assert cache.stats()["atom_tables"] == {"spaces": 1}
        cache.clear()
        assert cache.stats()["atom_tables"] == {"spaces": 0}
