"""The risk model as an overlay == the risk model as it always was.

The builders compute a model's structure (element ↔ risk) once per
``PolicyIndex`` and hand out overlays on it: the failed edges live in each
model, the structure is shared and never edited.  Two differential gates
hold that to the behaviour it replaced, with the references kept here, not
in ``src/``:

* a state machine drives random ``add_element`` / ``mark_edge_failed`` /
  ``mark_element_failed`` / ``mark_failed`` (the bulk mark augmentation
  uses) / SCOUT runs /
  ``copy`` sequences against :class:`NaiveModel` — plain dicts of sets and
  deep copies — and compares every public query of every model alive after
  every step, what the bulk mark flagged, and the hypothesis SCOUT (whose
  stage 1 prunes on counts of its own) makes of the model against the one it
  makes of a model built afresh from the reference, starting from one
  hand-built (owning) model and one overlay handed out by a builder;
* for seeded fault sets, what ``ScoutSystem.localize()`` reports — the
  hypothesis with its order, reasons and ratios, γ, the model summary — must
  equal what SCOUT makes of a model built from scratch with an explicit
  ``add_element`` loop over the index, in both scopes and sharded.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Set, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from oracles import failed_edges, mark_edge_failed, risks_for_element
from repro.core import ScoutLocalizer, ScoutSystem
from repro.core.hypothesis import Hypothesis
from repro.core.system import ScoutReport
from repro.exceptions import RiskModelError
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.parallel import plan_shards
from repro.policy.graph import PolicyIndex
from repro.risk import (
    RiskModel,
    augment_controller_model,
    augment_switch_model,
    build_controller_risk_model,
)
from repro.risk.augment import augment_controller_model_sharded
from repro.workloads import (
    datacenter_profile,
    simulation_profile,
    small_profile,
    three_tier_scenario,
)
from repro.workloads import testbed_profile as make_testbed_profile  # not a test

pytestmark = pytest.mark.slow


# ---------------------------------------------------------------------- #
# References
# ---------------------------------------------------------------------- #
def _copied(table: Dict[Hashable, Set[Hashable]]) -> Dict[Hashable, Set[Hashable]]:
    return {key: set(values) for key, values in table.items()}


class NaiveModel:
    """The bipartite model as plain dicts of sets."""

    def __init__(self) -> None:
        self.element_risks: Dict[Hashable, Set[Hashable]] = {}
        self.risk_elements: Dict[Hashable, Set[Hashable]] = {}
        self.failed: Dict[Hashable, Set[Hashable]] = {}

    def add_element(self, element: Hashable, risks: Iterable[Hashable]) -> None:
        risks = set(risks)
        if not risks:
            raise RiskModelError("no risks")
        self.element_risks.setdefault(element, set()).update(risks)
        for risk in risks:
            self.risk_elements.setdefault(risk, set()).add(element)

    def mark_edge_failed(self, element: Hashable, risk: Hashable) -> None:
        if risk not in self.element_risks.get(element, ()):
            raise RiskModelError("no such edge")
        self.failed.setdefault(element, set()).add(risk)

    def mark_element_failed(self, element: Hashable, risks=None) -> Set[Hashable]:
        """The bulk mark: whatever of ``risks`` the element relies on, one
        edge at a time; a stranger relies on nothing."""
        relied_on = self.element_risks.get(element, set())
        wanted = relied_on if risks is None else risks
        failed = {risk for risk in wanted if risk in relied_on}
        for risk in failed:
            self.mark_edge_failed(element, risk)
        return failed

    def model(self) -> RiskModel:
        """The same contents in a model built afresh, owning its structure."""
        fresh = RiskModel()
        for element, risks in self.element_risks.items():
            fresh.add_element(element, risks)
        fresh.mark_failed(self.failed)
        return fresh

    def copy(self) -> "NaiveModel":
        clone = NaiveModel()
        clone.element_risks = _copied(self.element_risks)
        clone.risk_elements = _copied(self.risk_elements)
        clone.failed = _copied(self.failed)
        return clone

    def failed_elements_for_risk(self, risk: Hashable) -> Set[Hashable]:
        return {element for element, risks in self.failed.items() if risk in risks}


def controller_elements(index: PolicyIndex, include_switch_risks: bool = True):
    """``(element, risks)`` of the controller risk model, in model order."""
    for switch_uid in index.all_switches():
        for pair in index.pairs_on_switch(switch_uid):
            risks = list(index.risks_for_pair(pair))
            if include_switch_risks:
                risks.append(switch_uid)
            yield (switch_uid, pair), risks


def reference_controller_model(
    index: PolicyIndex, include_switch_risks: bool = True
) -> RiskModel:
    """The controller risk model, element by element, owning its structure."""
    model = RiskModel(name="controller-risk-model")
    for element, risks in controller_elements(index, include_switch_risks):
        model.add_element(element, risks)
    return model


def reference_switch_model(index: PolicyIndex, switch_uid: str) -> RiskModel:
    model = RiskModel(name=f"switch-risk-model:{switch_uid}")
    for pair in index.pairs_on_switch(switch_uid):
        model.add_element(pair, index.risks_for_pair(pair))
    return model


def assert_same_model(
    model: RiskModel, naive: NaiveModel, probes: Tuple[list, list]
) -> None:
    """Every public query of ``model`` answers as the naive reference does."""
    elements, risks = probes
    assert model.elements() == list(naive.element_risks)
    assert model.risks() == list(naive.risk_elements)
    signature = {element for element, failed in naive.failed.items() if failed}
    assert model.failure_signature() == signature
    assert failed_edges(model) == {
        (element, risk) for element, failed in naive.failed.items() for risk in failed
    }
    suspects = set().union(*(naive.element_risks[element] for element in signature))
    assert model.suspect_risks() == suspects
    assert model.summary() == {
        "elements": len(naive.element_risks),
        "risks": len(naive.risk_elements),
        "edges": sum(len(deps) for deps in naive.element_risks.values()),
        "failed_elements": len(signature),
        "failed_edges": sum(len(failed) for failed in naive.failed.values()),
    }
    for element in elements:
        assert (element in model) == (element in naive.element_risks)
        relied_on = naive.element_risks.get(element, set())
        failed = naive.failed.get(element, set())
        assert risks_for_element(model, element) == relied_on
        assert model.failed_risks_for_element(element) == failed
    for risk in risks:
        dependents = naive.risk_elements.get(risk, set())
        observed = naive.failed_elements_for_risk(risk)
        assert model.elements_for_risk(risk) == dependents
        assert model.failed_elements_for_risk(risk) == observed
        assert model.hit_ratio(risk) == (
            len(observed) / len(dependents) if dependents else 0.0
        )
        assert model.coverage_ratio(risk) == (
            len(observed) / len(signature) if signature else 0.0
        )


# ---------------------------------------------------------------------- #
# (a) the state machine
# ---------------------------------------------------------------------- #
_picks = st.integers(min_value=0, max_value=10_000)


class OverlayAgainstNaive(RuleBasedStateMachine):
    """Random edits on a small population of models, each with its reference."""

    MAX_MODELS = 4

    @initialize()
    def start(self) -> None:
        scenario = three_tier_scenario()
        self.policy = scenario.controller.policy
        self.index = PolicyIndex(self.policy)
        overlay = build_controller_risk_model(self.policy, index=self.index)
        cold = reference_controller_model(self.index)
        shared = NaiveModel()
        for element, risks in controller_elements(self.index):
            shared.add_element(element, risks)
        owning, owned = RiskModel(), NaiveModel()
        for element, risks in ((0, ["r0", "r1"]), (1, ["r1", "r2"]), (2, ["r2"])):
            owning.add_element(element, risks)
            owned.add_element(element, risks)
        self.cold = shared.copy()
        self.models: List[Tuple[RiskModel, NaiveModel]] = [
            (overlay, shared),
            (owning, owned),
        ]
        # Probe keys: everything either model knows, plus strangers.
        self.elements = [*cold.elements(), 0, 1, 2, 3, ("leaf-1", "ghost")]
        self.risks = [*cold.risks(), "r0", "r1", "r2", "r3"]

    def _pick(self, which: int) -> Tuple[RiskModel, NaiveModel]:
        return self.models[which % len(self.models)]

    @rule(which=_picks, element=_picks, risks=st.lists(_picks, max_size=3))
    def add_element(self, which, element, risks):
        model, naive = self._pick(which)
        element = self.elements[element % len(self.elements)]
        risks = [self.risks[risk % len(self.risks)] for risk in risks]
        if not risks:
            with pytest.raises(RiskModelError):
                model.add_element(element, risks)
            return
        model.add_element(element, risks)
        naive.add_element(element, risks)

    @rule(which=_picks, element=_picks, risk=_picks, any_risk=st.booleans())
    def mark_edge_failed(self, which, element, risk, any_risk):
        model, naive = self._pick(which)
        element = self.elements[element % len(self.elements)]
        known = sorted(naive.element_risks.get(element, ()), key=repr)
        if known and not any_risk:
            risk = known[risk % len(known)]
        else:
            risk = self.risks[risk % len(self.risks)]
        if risk in naive.element_risks.get(element, ()):
            mark_edge_failed(model, element, risk)
            naive.mark_edge_failed(element, risk)
        else:
            with pytest.raises(RiskModelError):
                mark_edge_failed(model, element, risk)

    @rule(which=_picks, element=_picks, risks=st.none() | st.lists(_picks, max_size=4))
    def mark_element_failed(self, which, element, risks):
        """All of an element's edges, or the bulk mark augmentation uses
        (``mark_failed``): any element (a stranger too) and any risks (some
        it does not rely on) — never an error, and the flagged risks come
        back."""
        model, naive = self._pick(which)
        element = self.elements[element % len(self.elements)]
        if risks is not None:
            risks = [self.risks[risk % len(self.risks)] for risk in risks]
            risks += sorted(naive.element_risks.get(element, ()), key=repr)[::2]
        if risks is None:
            flagged = model.mark_element_failed(element)
        else:
            flagged = model.mark_failed({element: risks}).get(element, set())
        assert flagged == naive.mark_element_failed(element, risks)

    @rule(which=_picks, victims=st.lists(_picks, max_size=4), whole_risk=st.booleans())
    def localize(self, which, victims, whole_risk):
        """SCOUT over a model with any history — shared or owned structure,
        copied, edited — as over one built afresh; the invariant then holds
        the model to its reference, so stage 1's pruning left no trace."""
        model, naive = self._pick(which)
        if whole_risk and victims and naive.risk_elements:
            # Every dependent of one risk fails on it: a hit ratio of 1, so
            # stage 1 picks it and prunes them all.
            risks = list(naive.risk_elements)
            risk = risks[victims[0] % len(risks)]
            for element in sorted(naive.risk_elements[risk], key=repr):
                assert model.mark_failed({element: [risk]}) == {element: {risk}}
                naive.mark_element_failed(element, [risk])
        else:
            # Some elements fail on every risk they rely on (strangers flag
            # nothing).
            for victim in victims:
                element = self.elements[victim % len(self.elements)]
                flagged = model.mark_element_failed(element)
                assert flagged == naive.mark_element_failed(element)
        hypothesis = ScoutLocalizer().localize(model)
        reference = ScoutLocalizer().localize(naive.model())
        assert hypothesis.to_dict() == reference.to_dict()

    @rule(which=_picks)
    def copy(self, which):
        model, naive = self._pick(which)
        if len(self.models) == self.MAX_MODELS:
            self.models.pop(which % len(self.models))
        self.models.append((model.copy(), naive.copy()))

    @rule()
    def build_again(self):
        """Whatever was done to the models handed out so far, the next one
        from the same index starts clean."""
        fresh = build_controller_risk_model(self.policy, index=self.index)
        assert fresh.structure_reused
        assert_same_model(fresh, self.cold, (self.elements, self.risks))

    @invariant()
    def every_model_matches_its_reference(self):
        for model, naive in getattr(self, "models", ()):
            assert_same_model(model, naive, (self.elements, self.risks))


OverlayAgainstNaive.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestOverlayAgainstNaive = OverlayAgainstNaive.TestCase


# ---------------------------------------------------------------------- #
# (b) localize() against a model built from scratch
# ---------------------------------------------------------------------- #
def _from_scratch(system: ScoutSystem, scope: str, equivalence) -> ScoutReport:
    """``localize(scope)``'s fault-localization step over reference models."""
    index = PolicyIndex(system.controller.policy)
    missing = equivalence.missing_rules()
    models: Dict[str, RiskModel] = {}
    per_switch = {}
    if scope == "controller":
        model = reference_controller_model(index, system.include_switch_risks)
        augment_controller_model(
            model, missing, include_switch_risks=system.include_switch_risks
        )
        models["controller"] = model
        hypothesis = system.localizer.localize(model)
    else:
        hypothesis = Hypothesis(algorithm=system.localizer.name)
        for switch_uid, rules in sorted(missing.items()):
            model = reference_switch_model(index, switch_uid)
            augment_switch_model(model, rules)
            models[switch_uid] = model
            per_switch[switch_uid] = system.localizer.localize(model)
            hypothesis = hypothesis.merge(per_switch[switch_uid])
    return ScoutReport(
        scope=scope,
        equivalence=equivalence,
        hypothesis=hypothesis,
        per_switch=per_switch,
        risk_models=models,
    )


def _assert_same_localization(report: ScoutReport, reference: ScoutReport) -> None:
    assert sorted(report.risk_models) == sorted(reference.risk_models)
    assert report.hypothesis.to_dict() == reference.hypothesis.to_dict()
    assert report.suspect_reduction() == reference.suspect_reduction()
    per_switch = {uid: hyp.to_dict() for uid, hyp in report.per_switch.items()}
    expected = {uid: hyp.to_dict() for uid, hyp in reference.per_switch.items()}
    assert per_switch == expected
    for key, model in report.risk_models.items():
        assert model.summary() == reference.risk_models[key].summary()
        assert failed_edges(model) == failed_edges(reference.risk_models[key])
        assert model.elements() == reference.risk_models[key].elements()
        assert model.risks() == reference.risk_models[key].risks()


def _audit_and_compare(system: ScoutSystem) -> None:
    for scope in ("controller", "switch"):
        report = system.localize(scope=scope)
        reference = _from_scratch(system, scope, report.equivalence)
        _assert_same_localization(report, reference)
    # Sharded augmentation, along an explicit plan and along a derived one.
    serial = system.localize()
    model = build_controller_risk_model(
        system.controller.policy,
        index=system.controller.build_index(),
        include_switch_risks=system.include_switch_risks,
    )
    augment_controller_model_sharded(
        model,
        serial.equivalence.missing_rules(),
        plan_shards(serial.equivalence.results, 3),
        include_switch_risks=system.include_switch_risks,
    )
    along_plan = ScoutReport(
        scope="controller",
        equivalence=serial.equivalence,
        hypothesis=system.localizer.localize(model),
        risk_models={"controller": model},
    )
    for sharded in (along_plan, system.localize(parallel=True, max_workers=2)):
        reference = _from_scratch(system, "controller", sharded.equivalence)
        _assert_same_localization(sharded, reference)
        assert sharded.hypothesis.to_dict() == serial.hypothesis.to_dict()


@pytest.mark.parametrize(
    "profile, seeds, faults",
    [
        (make_testbed_profile(), range(6), 2),
        (small_profile(), range(6), 3),
        (simulation_profile(), range(3), 4),
    ],
    ids=["testbed", "small", "simulation"],
)
def test_localize_equals_scout_over_a_model_built_from_scratch(profile, seeds, faults):
    deployed = prepare_workload(profile)
    controller = deployed.controller
    with ScoutSystem(controller) as system:
        for seed in seeds:
            deployed.restore()
            controller.clock.tick(system.change_window + 1)
            injected = FaultInjector(controller).inject_random_faults(
                faults, strict=False, seed=seed
            )
            assert injected
            _audit_and_compare(system)
        stats = system.stats()
        # One structure per scope and switch for the whole run, then reuse
        # (three controller-scope audits per seed through ``localize()``).
        assert stats["risk_structures_built"] <= 1 + len(controller.fabric.leaf_uids())
        assert stats["risk_structures_reused"] >= 3 * len(seeds) - 1


@pytest.mark.soak
def test_forty_confined_faults_on_dc512_localize_as_from_scratch():
    """The harness's ``audit-dc512`` loop: one fault on four random leaves."""
    deployed = prepare_workload(datacenter_profile())
    controller = deployed.controller
    leaves = sorted(controller.fabric.leaf_uids())
    draws = random.Random(2018)
    with ScoutSystem(controller) as system:
        for _ in range(40):
            deployed.restore()
            controller.clock.tick(system.change_window + 1)
            FaultInjector(controller).inject_random_faults(
                1, switches=draws.sample(leaves, 4), seed=draws.getrandbits(32)
            )
            sharded = {"parallel": True, "max_workers": 2}
            for kwargs in ({}, {"scope": "switch"}, sharded):
                report = system.localize(**kwargs)
                reference = _from_scratch(system, report.scope, report.equivalence)
                _assert_same_localization(report, reference)
            assert report.risk_models["controller"].summary()["elements"] == 15_424
        assert system.stats()["risk_structures_built"] <= 1 + len(leaves)
