"""Unit tests for the bipartite risk model, switch/controller models and augmentation."""

import pytest

from oracles import element_risks, failed_edges, mark_edge_failed, risks_for_element
from repro.core import ScoutLocalizer, ScoutSystem
from repro.exceptions import RiskModelError
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.policy import EpgPair, PolicyIndex, three_tier_policy
from repro.risk import (
    RiskModel,
    augment_controller_model,
    augment_switch_model,
    build_controller_risk_model,
    build_switch_risk_model,
)
from repro.rules import TcamRule
from repro.workloads import small_profile


@pytest.fixture
def simple_model():
    """The Figure 5 style model: six pairs, six risks."""
    model = RiskModel("figure5")
    model.add_element("E1-E2", ["C1", "F1"])
    model.add_element("E2-E3", ["F1", "F2"])
    model.add_element("E3-E4", ["F2"])
    model.add_element("E4-E5", ["F2", "C2"])
    model.add_element("E5-E6", ["C2", "C3"])
    model.add_element("E6-E7", ["C3", "F3"])
    return model


@pytest.fixture
def web_policy_index():
    builder, uids = three_tier_policy()
    builder.endpoint("EP1", uids["web"], switch="leaf-1")
    builder.endpoint("EP2", uids["app"], switch="leaf-2")
    builder.endpoint("EP3", uids["db"], switch="leaf-3")
    policy = builder.build()
    return policy, PolicyIndex(policy), uids


class TestRiskModel:
    def test_add_element_requires_risks(self):
        model = RiskModel()
        with pytest.raises(RiskModelError):
            model.add_element("x", [])

    def test_edges_and_lookup(self, simple_model):
        assert set(risks_for_element(simple_model, "E2-E3")) == {"F1", "F2"}
        assert simple_model.elements_for_risk("F2") == {"E2-E3", "E3-E4", "E4-E5"}
        assert "E1-E2" in simple_model
        assert "nope" not in simple_model

    def test_failure_signature_and_failed_risks(self, simple_model):
        mark_edge_failed(simple_model, "E2-E3", "F2")
        assert simple_model.failure_signature() == {"E2-E3"}
        assert simple_model.failed_risks_for_element("E2-E3") == {"F2"}

    def test_hit_and_coverage_ratios(self, simple_model):
        for element in ("E2-E3", "E3-E4", "E4-E5"):
            mark_edge_failed(simple_model, element, "F2")
        mark_edge_failed(simple_model, "E2-E3", "F1")
        assert simple_model.hit_ratio("F2") == 1.0
        assert simple_model.hit_ratio("F1") == 0.5
        assert simple_model.hit_ratio("C3") == 0.0
        assert simple_model.coverage_ratio("F2") == 1.0
        assert simple_model.coverage_ratio("F1") == pytest.approx(1 / 3)

    def test_prune_elements_updates_ratios(self, simple_model):
        for element in ("E2-E3", "E3-E4", "E4-E5"):
            mark_edge_failed(simple_model, element, "F2")
        touched = simple_model.prune_elements(["E2-E3", "E3-E4", "E4-E5", "ghost"])
        assert touched == {"F1", "F2", "C2"}  # every risk that lost a dependent
        assert simple_model.prune_elements(["E3-E4"]) == set()  # already gone
        assert simple_model.failure_signature() == set()
        assert "F2" not in simple_model.risks()  # no dependents left
        assert simple_model.hit_ratio("F2") == 0.0

    def test_copy_is_independent(self, simple_model):
        mark_edge_failed(simple_model, "E1-E2", "C1")
        clone = simple_model.copy()
        clone.prune_elements(["E1-E2"])
        assert simple_model.failure_signature() == {"E1-E2"}
        assert "E1-E2" not in clone

    def test_suspect_risks(self, simple_model):
        mark_edge_failed(simple_model, "E5-E6", "C3")
        assert simple_model.suspect_risks() == {"C2", "C3"}

    def test_summary(self, simple_model):
        summary = simple_model.summary()
        assert summary["elements"] == 6
        assert summary["risks"] == 6
        assert summary["failed_elements"] == 0


class TestSwitchRiskModel:
    def test_figure4a_structure(self, web_policy_index):
        _, index, uids = web_policy_index
        model = build_switch_risk_model(index, "leaf-2")
        pairs = set(model.elements())
        assert pairs == {EpgPair(uids["web"], uids["app"]), EpgPair(uids["app"], uids["db"])}
        web_app_risks = risks_for_element(model, EpgPair(uids["web"], uids["app"]))
        assert uids["vrf"] in web_app_risks
        assert uids["web_app_contract"] in web_app_risks
        assert uids["app_db_contract"] not in web_app_risks

    def test_all_switch_models(self, web_policy_index):
        _, index, _ = web_policy_index
        models = {
            leaf: build_switch_risk_model(index, leaf) for leaf in index.all_switches()
        }
        assert set(models) == {"leaf-1", "leaf-2", "leaf-3"}
        assert len(models["leaf-1"].elements()) == 1
        assert len(models["leaf-2"].elements()) == 2


class TestControllerRiskModel:
    def test_figure4b_structure(self, web_policy_index):
        policy, index, uids = web_policy_index
        model = build_controller_risk_model(policy, index, include_switch_risks=False)
        # Web-App on leaf-1 and leaf-2; App-DB on leaf-2 and leaf-3: 4 triplets.
        assert len(model.elements()) == 4
        element = ("leaf-1", EpgPair(uids["web"], uids["app"]))
        assert element in model
        assert uids["vrf"] in risks_for_element(model, element)

    def test_switch_risks_included_by_default(self, web_policy_index):
        policy, index, uids = web_policy_index
        model = build_controller_risk_model(policy, index)
        element = ("leaf-2", EpgPair(uids["web"], uids["app"]))
        assert "leaf-2" in risks_for_element(model, element)


class TestAugmentation:
    def _missing_rule(self, uids, filter_uid=None):
        return TcamRule(
            101, 1, 2, "tcp", 80,
            vrf_uid=uids["vrf"], src_epg_uid=uids["web"], dst_epg_uid=uids["app"],
            contract_uid=uids["web_app_contract"],
            filter_uid=filter_uid or uids["filter_http"],
        )

    def test_augment_switch_model_marks_only_rule_objects(self, web_policy_index):
        _, index, uids = web_policy_index
        model = build_switch_risk_model(index, "leaf-2")
        flipped = augment_switch_model(model, [self._missing_rule(uids)])
        pair = EpgPair(uids["web"], uids["app"])
        assert flipped == 5
        assert model.failure_signature() == {pair}
        assert uids["filter_http"] in model.failed_risks_for_element(pair)
        # The App-DB contract is a risk of the other pair and must stay green.
        other = EpgPair(uids["app"], uids["db"])
        assert other not in model.failure_signature()

    def test_augment_ignores_rules_for_unknown_pairs(self, web_policy_index):
        _, index, uids = web_policy_index
        model = build_switch_risk_model(index, "leaf-1")
        rogue = TcamRule(101, 9, 8, "tcp", 80, src_epg_uid="epg:x/a", dst_epg_uid="epg:x/b")
        assert augment_switch_model(model, [rogue]) == 0

    def test_augment_controller_model_scopes_to_switch(self, web_policy_index):
        policy, index, uids = web_policy_index
        model = build_controller_risk_model(policy, index, include_switch_risks=True)
        missing = {"leaf-2": [self._missing_rule(uids)]}
        augment_controller_model(model, missing, include_switch_risks=True)
        failed = model.failure_signature()
        assert ("leaf-2", EpgPair(uids["web"], uids["app"])) in failed
        assert ("leaf-1", EpgPair(uids["web"], uids["app"])) not in failed
        # The switch itself is marked as a failed risk of that triplet.
        assert "leaf-2" in model.failed_risks_for_element(
            ("leaf-2", EpgPair(uids["web"], uids["app"]))
        )


def _cold_controller_model(index, include_switch_risks=True):
    """The controller risk model built element by element, sharing nothing."""
    model = RiskModel("controller-risk-model")
    for switch_uid in index.all_switches():
        for pair in index.pairs_on_switch(switch_uid):
            risks = list(index.risks_for_pair(pair))
            if include_switch_risks:
                risks.append(switch_uid)
            model.add_element((switch_uid, pair), risks)
    return model


def _assert_identical(model, cold):
    assert model.name == cold.name
    assert model.elements() == cold.elements()
    assert model.risks() == cold.risks()
    assert model.summary() == cold.summary()
    assert failed_edges(model) == failed_edges(cold)
    assert element_risks(model) == element_risks(cold)
    for risk in cold.risks():
        assert model.elements_for_risk(risk) == cold.elements_for_risk(risk)
        assert model.hit_ratio(risk) == cold.hit_ratio(risk)


class TestSharedStructure:
    """A builder's model is an overlay on a structure its index holds; no
    use of one model may reach another model, the index, or the next audit."""

    @pytest.fixture
    def deployed(self):
        return prepare_workload(small_profile())

    def test_the_second_model_of_an_index_reuses_the_structure(self, deployed):
        first = build_controller_risk_model(deployed.policy, index=deployed.index)
        second = build_controller_risk_model(deployed.policy, index=deployed.index)
        assert not first.structure_reused and second.structure_reused
        # Another shape of model is another structure.
        bare = build_controller_risk_model(
            deployed.policy, index=deployed.index, include_switch_risks=False
        )
        assert not bare.structure_reused
        assert set(bare.risks()) < set(first.risks())
        leaf = deployed.index.all_switches()[0]
        assert not build_switch_risk_model(deployed.index, leaf).structure_reused
        assert build_switch_risk_model(deployed.index, leaf).structure_reused
        # No index given: nothing to share with.
        assert not build_controller_risk_model(deployed.policy).structure_reused
        _assert_identical(second, _cold_controller_model(deployed.index))

    def test_every_public_mutation_stays_in_the_model_it_was_made_on(self, deployed):
        index = deployed.index
        cold = _cold_controller_model(index)
        used = build_controller_risk_model(deployed.policy, index=index)
        bystander = build_controller_risk_model(deployed.policy, index=index)
        elements = used.elements()
        risk = sorted(risks_for_element(used, elements[0]))[0]

        mark_edge_failed(used, elements[0], risk)
        used.mark_element_failed(elements[1])
        assert risk in used.prune_elements(used.elements_for_risk(risk))
        used.add_element(elements[0], ["risk:new"])  # was pruned: comes back bare
        used.add_element(("leaf-x", "pair-x"), [risk, "risk:new"])
        assert risks_for_element(used, elements[0]) == {"risk:new"}
        assert ("leaf-x", "pair-x") in used and ("leaf-x", "pair-x") not in bystander
        # A clone of a handed-out model, edited, is as private as its source.
        clone = bystander.copy()
        clone.add_element(("leaf-y", "pair-y"), ["risk:other"])
        clone.prune_elements(clone.elements()[:5])

        _assert_identical(bystander, cold)
        _assert_identical(build_controller_risk_model(deployed.policy, index=index), cold)

    def test_scout_leaves_the_model_it_ran_on_unpruned(self, deployed):
        controller = deployed.controller
        FaultInjector(controller).inject_random_faults(3, seed=5, strict=False)
        cold = _cold_controller_model(deployed.index)
        with ScoutSystem(controller) as system:
            report = system.localize()
            assert report.hypothesis.objects()
            model = report.risk_models["controller"]
            assert model.failure_signature()
            assert len(model.elements()) == len(cold.elements())
            assert len(model.risks()) == len(cold.risks())
            assert model.summary()["edges"] == cold.summary()["edges"]
            # Nor does running SCOUT again on the reported model — or marking
            # it up further — reach the next audit.
            again = ScoutLocalizer(change_oracle=system.localizer.change_oracle).localize(model)
            assert again.to_dict() == report.hypothesis.to_dict()
            gamma, summary = report.suspect_reduction(), model.summary()
            model.prune_elements(model.failure_signature())
            model.add_element(("leaf-x", "pair-x"), ["risk:new"])
            assert model.summary() != summary
            following = system.localize()
            assert following.hypothesis.to_dict() == report.hypothesis.to_dict()
            assert following.suspect_reduction() == gamma
            assert following.risk_models["controller"].summary() == summary
            deployed.restore()
            _assert_identical(
                system.localize().risk_models["controller"], cold
            )
