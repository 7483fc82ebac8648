"""Property-based tests: checker engines agree, and risk-model invariants hold."""

import random

from hypothesis import given, settings, strategies as st

from oracles import mark_edge_failed, missing_matches
from repro.core import ScoutLocalizer
from repro.risk import RiskModel
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker

# ---------------------------------------------------------------------------
# Rule strategies: exact-match rules over a small id space so collisions occur.
# ---------------------------------------------------------------------------
rule_strategy = st.builds(
    TcamRule,
    vrf_scope=st.integers(min_value=1, max_value=3),
    src_epg=st.integers(min_value=1, max_value=6),
    dst_epg=st.integers(min_value=1, max_value=6),
    protocol=st.sampled_from(["tcp", "udp"]),
    port=st.sampled_from([22, 80, 443, None]),
    action=st.just("allow"),
    vrf_uid=st.just("vrf:t/v"),
    src_epg_uid=st.sampled_from([f"epg:t/{i}" for i in range(1, 7)]),
    dst_epg_uid=st.sampled_from([f"epg:t/{i}" for i in range(1, 7)]),
    contract_uid=st.just("contract:t/c"),
    filter_uid=st.sampled_from(["filter:t/a", "filter:t/b"]),
)

rule_lists = st.lists(rule_strategy, max_size=25)


def _allow(rules):
    return [r for r in rules if r.action == "allow"]


class TestCheckerProperties:
    @given(rule_lists, rule_lists)
    @settings(max_examples=50, deadline=None)
    def test_bdd_and_hash_agree_without_wildcards(self, logical, deployed):
        # Restrict to rules without port wildcards so exact-match semantics apply.
        logical = [r for r in logical if r.port is not None]
        deployed = [r for r in deployed if r.port is not None]
        # The hash-set difference of match keys is the independent cross-check.
        bdd = EquivalenceChecker(engine="bdd").check_switch("s", logical, deployed)
        missing = missing_matches(_allow(logical), _allow(deployed))
        extra = missing_matches(_allow(deployed), _allow(logical))
        assert {r.match_key() for r in bdd.missing_rules} == {
            r.match_key() for r in missing
        }
        assert bdd.equivalent == (not missing and not extra)

    @given(rule_lists)
    @settings(max_examples=30, deadline=None)
    def test_identical_sets_always_equivalent(self, rules):
        result = EquivalenceChecker(engine="bdd").check_switch("s", rules, list(rules))
        assert result.equivalent
        assert result.missing_rules == []

    @given(rule_lists, st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_removing_rules_never_creates_extras(self, rules, how_many):
        rng = random.Random(0)
        deployed = list(rules)
        rng.shuffle(deployed)
        deployed = deployed[: max(0, len(deployed) - how_many)]
        result = EquivalenceChecker(engine="bdd").check_switch("s", rules, deployed)
        assert result.extra_rules == []
        # Every reported missing rule really is absent from the deployed set.
        deployed_keys = {r.match_key() for r in deployed}
        for rule in result.missing_rules:
            assert rule.match_key() not in deployed_keys

    @given(rule_lists, rule_lists)
    @settings(max_examples=40, deadline=None)
    def test_missing_matches_helper_bounds_the_semantic_engine(self, logical, deployed):
        # Wildcards included: a logical rule whose exact key is deployed is
        # covered, so the syntactic difference can only over-report.
        result = EquivalenceChecker().check_switch("s", logical, deployed)
        helper = missing_matches(_allow(logical), _allow(deployed))
        assert {r.match_key() for r in helper} >= {r.match_key() for r in result.missing_rules}



# ---------------------------------------------------------------------------
# Risk model invariants over randomly generated bipartite graphs.
# ---------------------------------------------------------------------------
@st.composite
def risk_models(draw):
    num_elements = draw(st.integers(min_value=1, max_value=12))
    num_risks = draw(st.integers(min_value=1, max_value=8))
    model = RiskModel("random")
    membership = {}
    for e in range(num_elements):
        risks = draw(
            st.sets(st.integers(min_value=0, max_value=num_risks - 1), min_size=1, max_size=4)
        )
        element = f"e{e}"
        membership[element] = {f"r{r}" for r in risks}
        model.add_element(element, membership[element])
    # Fail a random subset of edges.
    for element, risks in membership.items():
        for risk in risks:
            if draw(st.booleans()):
                mark_edge_failed(model, element, risk)
    return model


class TestRiskModelProperties:
    @given(risk_models())
    @settings(max_examples=60, deadline=None)
    def test_ratios_bounded(self, model):
        for risk in model.risks():
            assert 0.0 <= model.hit_ratio(risk) <= 1.0
            assert 0.0 <= model.coverage_ratio(risk) <= 1.0

    @given(risk_models())
    @settings(max_examples=60, deadline=None)
    def test_failure_signature_consistency(self, model):
        signature = model.failure_signature()
        for element in signature:
            assert model.failed_risks_for_element(element)
        for risk in model.risks():
            assert model.failed_elements_for_risk(risk) <= model.elements_for_risk(risk)
            assert model.failed_elements_for_risk(risk) <= signature

    @given(risk_models())
    @settings(max_examples=40, deadline=None)
    def test_copy_equivalence(self, model):
        clone = model.copy()
        assert clone.summary() == model.summary()
        assert clone.failure_signature() == model.failure_signature()

    @given(risk_models())
    @settings(max_examples=40, deadline=None)
    def test_stage1_pruning_removes_all_traces(self, model):
        """Every element depending on a picked risk is pruned: no later
        iteration's entry explains it, the failed ones are exactly what the
        hypothesis explains, and the model itself keeps them all."""
        signature, summary = model.failure_signature(), model.summary()
        hypothesis = ScoutLocalizer().localize(model)
        pruned, picked, iteration = set(), set(), 0
        for entry in hypothesis.entries:
            if entry.iteration != iteration:
                pruned |= picked
                picked, iteration = set(), entry.iteration
            assert not entry.explained & pruned
            picked |= model.elements_for_risk(entry.risk)
        pruned |= picked
        assert hypothesis.explained == signature & pruned
        assert hypothesis.unexplained == signature - pruned
        assert model.failure_signature() == signature
        assert model.summary() == summary

    @given(risk_models())
    @settings(max_examples=40, deadline=None)
    def test_suspect_set_contains_failed_risks(self, model):
        suspects = model.suspect_risks()
        for element in model.failure_signature():
            assert model.failed_risks_for_element(element) <= suspects
