"""Unit tests for rule encoding and the L-T equivalence checker."""

import re
from pathlib import Path

import pytest

from oracles import count_solutions, decode_assignment
from repro.exceptions import VerificationError
from repro.rules import TcamRule
from repro.verify import ENGINES, EquivalenceChecker, RuleSpace


def _rule(port, src=1, dst=2, protocol="tcp", vrf=101, action="allow", filter_uid="f"):
    return TcamRule(vrf, src, dst, protocol, port, action=action,
                    vrf_uid="vrf:t/v", src_epg_uid=f"epg:t/{src}", dst_epg_uid=f"epg:t/{dst}",
                    contract_uid="contract:t/c", filter_uid=filter_uid)


class TestRuleSpace:
    def test_encode_decode_round_trip(self):
        space = RuleSpace()
        rule = _rule(80)
        assignment = space.rule_assignment(rule)
        decoded = decode_assignment(space, assignment)
        assert decoded["vrf_scope"] == 101
        assert decoded["src_epg"] == 1
        assert decoded["dst_epg"] == 2
        assert decoded["port"] == 80

    def test_wildcard_port_unconstrained(self):
        space = RuleSpace()
        assignment = space.rule_assignment(_rule(None))
        decoded = decode_assignment(space, assignment)
        assert decoded["port"] is None

    def test_any_protocol_unconstrained(self):
        space = RuleSpace()
        assignment = space.rule_assignment(_rule(80, protocol="any"))
        assert decode_assignment(space, assignment)["protocol"] is None

    def test_value_overflow_rejected(self):
        space = RuleSpace(vrf_bits=4)
        with pytest.raises(VerificationError):
            space.rule_assignment(_rule(80, vrf=100))

    def test_rule_count_via_bdd(self):
        space = RuleSpace()
        manager = space.new_manager()
        node = space.encode_ruleset(manager, [_rule(80), _rule(81)])
        assert count_solutions(manager, node) == 2

    def test_deny_rules_excluded_from_allowed_set(self):
        space = RuleSpace()
        manager = space.new_manager()
        node = space.encode_ruleset(manager, [_rule(80, action="deny")])
        assert node == manager.FALSE


class TestEquivalenceChecker:
    def test_identical_sets_are_equivalent(self):
        checker = EquivalenceChecker(engine="bdd")
        rules = [_rule(80), _rule(443)]
        result = checker.check_switch("leaf-1", rules, list(rules))
        assert result.equivalent
        assert result.missing_rules == [] and result.extra_rules == []

    def test_missing_rule_detected(self):
        checker = EquivalenceChecker(engine="bdd")
        logical = [_rule(80), _rule(443)]
        deployed = [_rule(80)]
        result = checker.check_switch("leaf-1", logical, deployed)
        assert not result.equivalent
        assert [r.port for r in result.missing_rules] == [443]
        assert result.extra_rules == []

    def test_extra_rule_detected(self):
        checker = EquivalenceChecker(engine="bdd")
        result = checker.check_switch("leaf-1", [_rule(80)], [_rule(80), _rule(22)])
        assert not result.equivalent
        assert [r.port for r in result.extra_rules] == [22]

    def test_engines_agree_on_exact_match_rules(self):
        logical = [_rule(p) for p in range(80, 120)]
        deployed = [_rule(p) for p in range(80, 110)]
        bdd_result = EquivalenceChecker(engine="bdd").check_switch("s", logical, deployed)
        ap_result = EquivalenceChecker(engine="ap").check_switch("s", logical, deployed)
        assert bdd_result.missing_rules == ap_result.missing_rules
        assert [r.port for r in ap_result.missing_rules] == list(range(110, 120))

    def test_unknown_engine_rejected(self):
        # "auto" and "hash" were engine names once; they are not aliases.
        for engine in ("magic", "auto", "hash"):
            with pytest.raises(VerificationError):
                EquivalenceChecker(engine=engine)

    def test_default_engine_and_docs_chapter_follow_engines(self):
        assert ENGINES == ("ap", "bdd")
        assert EquivalenceChecker().engine == ENGINES[0]
        chapter = (Path(__file__).parents[2] / "docs" / "engines.md").read_text()
        headings = re.findall(r"^### `(\w+)`", chapter, flags=re.MULTILINE)
        assert tuple(headings) == ENGINES

    def test_corrupted_action_counts_as_missing(self):
        logical = [_rule(80)]
        deployed = [_rule(80, action="deny")]
        result = EquivalenceChecker(engine="bdd").check_switch("s", logical, deployed)
        assert [r.port for r in result.missing_rules] == [80]

    def test_network_report_aggregation(self):
        checker = EquivalenceChecker()
        logical = {"leaf-1": [_rule(80)], "leaf-2": [_rule(80), _rule(443)]}
        deployed = {"leaf-1": [_rule(80)], "leaf-2": [_rule(80)]}
        report = checker.check_network(logical, deployed)
        assert not report.equivalent
        assert report.total_missing() == 1
        assert report.switches_with_violations() == ["leaf-2"]
        assert set(report.missing_rules()) == {"leaf-2"}
        assert report.summary()["switches"] == 2

    def test_switch_only_in_deployed_snapshot(self):
        checker = EquivalenceChecker()
        report = checker.check_network({}, {"leaf-9": [_rule(80)]})
        assert report.results["leaf-9"].extra_rules


class TestInvalidRulesRaiseOnEveryPath:
    """An out-of-range field or unknown protocol is a ``VerificationError``
    from every sweep entry point and engine, wherever the key sits — also on
    both sides (where a bare key-set comparison would call it equivalent)
    and in a triple the L-T difference never touches."""

    BAD = [_rule(7, protocol="gre"), _rule(1 << 16), _rule(80, vrf=1 << 13)]

    @staticmethod
    def _sweeps(engine):
        return (
            lambda l, t: EquivalenceChecker(engine=engine).check_network({"s": l}, {"s": t}),
            lambda l, t: EquivalenceChecker(engine=engine).check_many([("s", l, t)]),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bad", BAD)
    def test_same_bad_rule_on_both_sides(self, engine, bad):
        for sweep in self._sweeps(engine):
            with pytest.raises(VerificationError):
                sweep([bad], [bad])

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bad", BAD)
    def test_bad_rule_in_an_untouched_triple(self, engine, bad):
        # The difference (port 443 missing) lives under (101, 1, 2); the bad
        # key sits on both sides under another triple.
        elsewhere = TcamRule(bad.vrf_scope, 5, 6, bad.protocol, bad.port)
        logical = [_rule(80), _rule(443), elsewhere]
        deployed = [_rule(80), elsewhere]
        for sweep in self._sweeps(engine):
            with pytest.raises(VerificationError):
                sweep(logical, deployed)

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_rule_on_one_side_only(self, bad):
        for sweep in self._sweeps("ap"):
            with pytest.raises(VerificationError):
                sweep([_rule(80), bad], [_rule(80)])
            with pytest.raises(VerificationError):
                sweep([_rule(80)], [_rule(80), bad])

    def test_invalid_deny_rules_stay_ignored(self):
        # Neither engine looks at a deny rule's fields.
        deny = _rule(7, protocol="gre", action="deny")
        for engine in ENGINES:
            for sweep in self._sweeps(engine):
                assert sweep([_rule(80), deny], [_rule(80)]).equivalent


class TestCanonicalReports:
    """The engine-agnostic, order-canonical identity the churn oracle uses."""

    def test_engine_label_is_normalized(self):
        logical = {"leaf-1": [_rule(80)]}
        deployed = {"leaf-1": [_rule(80)]}
        bdd = EquivalenceChecker(engine="bdd").check_network(logical, deployed)
        ap = EquivalenceChecker(engine="ap").check_network(logical, deployed)
        assert bdd.fingerprint() != ap.fingerprint()  # engine is identity
        assert bdd.canonical().fingerprint() == ap.canonical().fingerprint()
        assert bdd.semantic_fingerprint() == ap.semantic_fingerprint()

    def test_rule_order_is_normalized(self):
        checker = EquivalenceChecker()
        one = checker.check_network({"leaf-1": [_rule(80), _rule(443)]}, {"leaf-1": []})
        two = checker.check_network({"leaf-1": [_rule(443), _rule(80)]}, {"leaf-1": []})
        assert one.semantic_fingerprint() == two.semantic_fingerprint()

    def test_real_differences_still_differ(self):
        checker = EquivalenceChecker()
        clean = checker.check_network({"leaf-1": [_rule(80)]}, {"leaf-1": [_rule(80)]})
        broken = checker.check_network({"leaf-1": [_rule(80)]}, {"leaf-1": []})
        assert clean.semantic_fingerprint() != broken.semantic_fingerprint()

    def test_canonical_preserves_verdicts_and_counts(self):
        checker = EquivalenceChecker(engine="bdd")
        report = checker.check_network(
            {"leaf-1": [_rule(80), _rule(443)]}, {"leaf-1": [_rule(80)]}
        )
        canonical = report.canonical()
        result = canonical.results["leaf-1"]
        assert result.engine == "semantic"
        assert not result.equivalent
        assert result.logical_count == 2 and result.deployed_count == 1
        assert [r.port for r in result.missing_rules] == [443]
        # The original report is untouched.
        assert report.results["leaf-1"].engine == "bdd"
