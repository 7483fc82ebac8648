"""The risk model as an overlay == the risk model as it always was.

The builders compute a model's structure (element ↔ risk) once per
``PolicyIndex`` and hand out overlays on it: the failed edges live in each
model, the structure is shared and never edited.  Two differential gates
hold that to the behaviour it replaced, with the references kept here, not
in ``src/``:

* a state machine drives random ``add_element`` / ``mark_edge_failed`` /
  ``mark_element_failed`` / ``mark_failed`` (the bulk mark augmentation
  uses, handed sets of the caller's) / SCOUT runs /
  ``copy`` sequences against :class:`NaiveModel` — plain dicts of sets and
  deep copies — and compares every public query of every model alive after
  every step (an ``add_element`` on a shared structure must raise and change
  no model), what ``mark_element_failed`` flagged, and the hypothesis SCOUT (whose
  stage 1 prunes on counts of its own) makes of the model against the one it
  makes of a model built afresh from the reference, starting from one
  hand-built (owning) model and one overlay handed out by a builder;
* for seeded fault sets, what ``ScoutSystem.localize()`` reports — the
  hypothesis with its order, reasons and ratios, γ, the model summary — must
  equal what SCOUT makes of a model built from scratch with an explicit
  ``add_element`` loop over the index, in both scopes and sharded;
* a state machine alternates switch and controller augmentations (the
  switch as a risk or not, ``src == dst``, repeated and empty provenance
  fields), ``mark_element_failed`` and ``copy()`` on one structure, and
  after every step holds each model's failed edges to per-rule marking and
  checks that no failed set is shared — between two elements, two copies,
  or an element and a set of the structure or of the pair index.
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
from repro.policy import EpgPair
from repro.policy.graph import PolicyIndex
from repro.risk import (
    RiskModel,
    augment_controller_model,
    augment_switch_model,
    build_controller_risk_model,
)
from repro.risk.augment import augment_controller_model_sharded
from repro.rules import TcamRule
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
        #: Whether the structure is shared (a copy, or a copy's source):
        #: from then on it is read-only.
        self.shared = False

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
        fresh.mark_failed(_copied(self.failed))
        return fresh

    def copy(self) -> "NaiveModel":
        clone = NaiveModel()
        self.shared = clone.shared = True
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
        shared.shared = True  # the builder's structure is its index's too
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
        if not risks or naive.shared:
            # A shared structure is read-only; the invariant then holds every
            # model to its unchanged reference.
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
        """All of an element's edges (a stranger has none, and that is no
        error), or the bulk mark augmentation uses (``mark_failed``) with
        the ones among ``risks`` it relies on, in a set of the caller's."""
        model, naive = self._pick(which)
        element = self.elements[element % len(self.elements)]
        if risks is not None:
            risks = [self.risks[risk % len(self.risks)] for risk in risks]
            risks += sorted(naive.element_risks.get(element, ()), key=repr)[::2]
        if risks is None:
            assert model.mark_element_failed(element) == naive.mark_element_failed(element)
        else:
            model.mark_failed({element: naive.mark_element_failed(element, risks)})

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
                model.mark_failed({element: {risk}})
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


# ---------------------------------------------------------------------- #
# (c) who owns a failed set
# ---------------------------------------------------------------------- #
OWN_EPGS = ["epg:a", "epg:b", "epg:c", "epg:d"]
OWN_OBJECTS = ["vrf:1", "ctr:1", "ctr:2", "flt:1", "flt:2"]
OWN_SWITCHES = ["leaf-1", "leaf-2"]
#: Per pair, what it relies on: ``(a, b)`` relies on no more than one rule
#: names, so one rule can hit all of it; ``(b, c)`` (which relies on ``""``
#: too) and ``(a, d)`` rely on ``vrf:1`` alone, so one call often gives both
#: the same hits.
OWN_PAIRS = {
    ("epg:a", "epg:b"): ["epg:a", "epg:b", "vrf:1"],
    ("epg:a", "epg:c"): ["epg:a", "epg:c", "vrf:1", "ctr:1", "flt:1", "flt:2"],
    ("epg:b", "epg:c"): ["vrf:1", ""],
    ("epg:a", "epg:d"): ["vrf:1"],
    ("epg:c", "epg:d"): ["epg:c", "epg:d", "ctr:1", "ctr:2", "flt:1"],
}


def _ownership_structure() -> RiskModel:
    """One structure holding both scopes' elements: each pair on its own
    (the switch model's) and as ``(switch, pair)`` triplets (the controller
    model's), ``leaf-1``'s relying on their switch, ``leaf-2``'s not."""
    model = RiskModel("ownership")
    for (a, b), risks in OWN_PAIRS.items():
        pair = EpgPair(a, b)
        model.add_element(pair, risks)
        model.add_element(("leaf-1", pair), risks + ["leaf-1"])
        model.add_element(("leaf-2", pair), risks)
    return model


_own_field = st.sampled_from(OWN_OBJECTS + ["obj:unknown", ""])
#: A rule's ``(src, dst)``: each pair in both directions, ``src == dst``,
#: an EPG the structure does not hold and an empty field.
_own_ends = st.sampled_from(
    [(a, b) for a in OWN_EPGS for b in OWN_EPGS if a != b]
    + [("epg:a", "epg:a"), ("epg:a", "epg:unknown"), ("", "epg:b")]
)


@st.composite
def _own_rules(draw):
    rules = []
    for src, dst in draw(st.lists(_own_ends, max_size=12)):
        rules.append(
            TcamRule(
                vrf_scope=101,
                src_epg=1,
                dst_epg=2,
                protocol="tcp",
                port=draw(st.integers(80, 81)),
                vrf_uid=draw(_own_field),
                src_epg_uid=src,
                dst_epg_uid=dst,
                contract_uid=draw(_own_field),  # at times the vrf or filter field again
                filter_uid=draw(_own_field),
            )
        )
    return rules


def _naive_marks(relied_on, rules, switch_uid=None, implicate_switch=False):
    """Per rule: the ``(element, risk)`` edges it fails and how many."""
    edges, flipped = set(), 0
    for rule in rules:
        if rule.src_epg_uid == rule.dst_epg_uid:
            continue
        pair = EpgPair(rule.src_epg_uid, rule.dst_epg_uid)
        element = pair if switch_uid is None else (switch_uid, pair)
        relied = relied_on.get(element, set())
        for uid in rule.objects() + ([switch_uid] if implicate_switch else []):
            if uid in relied:
                edges.add((element, uid))
                flipped += 1
    return edges, flipped


class FailedSetOwnership(RuleBasedStateMachine):
    """Augmentations, ``mark_element_failed`` and ``copy()`` on one
    structure: every failed set belongs to one element of one model."""

    MAX_MODELS = 4

    @initialize()
    def start(self) -> None:
        owner = _ownership_structure()
        self.relied_on = {
            element: risks_for_element(owner, element) for element in owner.elements()
        }
        # The owner first, then a copy: the structure is shared from here.
        self.models: List[Tuple[RiskModel, Set[Tuple[Hashable, Hashable]]]] = [
            (owner, set()),
            (owner.copy(), set()),
        ]

    def _pick(self, which: int) -> Tuple[RiskModel, Set[Tuple[Hashable, Hashable]]]:
        return self.models[which % len(self.models)]

    @rule(which=_picks, rules=_own_rules())
    def augment_switch(self, which, rules):
        model, edges = self._pick(which)
        expected, flipped = _naive_marks(self.relied_on, rules)
        assert augment_switch_model(model, rules) == flipped
        edges |= expected

    @rule(
        which=_picks,
        missing=st.dictionaries(st.sampled_from(OWN_SWITCHES + ["leaf-9"]), _own_rules()),
        implicate=st.booleans(),
    )
    def augment_controller(self, which, missing, implicate):
        model, edges = self._pick(which)
        flipped = 0
        for switch_uid, rules in missing.items():
            expected, count = _naive_marks(self.relied_on, rules, switch_uid, implicate)
            edges |= expected
            flipped += count
        assert augment_controller_model(model, missing, include_switch_risks=implicate) == flipped

    @rule(which=_picks, element=_picks, risks=st.none() | st.lists(_picks, max_size=3))
    def mark_element_failed(self, which, element, risks):
        """All of an element's edges, or (``mark_failed``) the ones among
        ``risks`` it relies on, in a set the caller then edits."""
        model, edges = self._pick(which)
        elements = sorted(self.relied_on, key=repr)
        element = elements[element % len(elements)]
        relied = self.relied_on[element]
        if risks is None:
            flagged = model.mark_element_failed(element)
            assert flagged == relied
            edges |= {(element, risk) for risk in flagged}
            # What comes back is the caller's: editing it changes no model.
            flagged.add("risk:stranger")
        else:
            named = OWN_EPGS + OWN_OBJECTS + OWN_SWITCHES
            flagged = relied & {named[risk % len(named)] for risk in risks}
            edges |= {(element, risk) for risk in flagged}
            model.mark_failed({element: flagged})

    @rule(which=_picks)
    def copy(self, which):
        model, edges = self._pick(which)
        if len(self.models) == self.MAX_MODELS:
            self.models.pop(which % len(self.models))
        self.models.append((model.copy(), set(edges)))

    @invariant()
    def failed_edges_are_the_per_rule_marks(self):
        for model, edges in getattr(self, "models", ()):
            assert failed_edges(model) == edges
            for risk in {risk for _, risk in edges}:
                assert model.failed_elements_for_risk(risk) == {
                    element for element, other in edges if other == risk
                }

    @invariant()
    def no_failed_set_is_shared(self):
        owned = []
        relied = []
        for model, _ in getattr(self, "models", ()):
            structure, dependents, failed = model.indexes()
            owned += failed.values()
            relied += structure.values()
            relied += dependents.values()
            for scope in [None, *OWN_SWITCHES, "leaf-9"]:
                relied += [entry[1] for entry in model.pair_index(scope).values() if entry]
        # Two elements, or two copies, never hold one set; nor does an
        # element hold its structure's set or the pair index's.
        assert len({id(held) for held in owned}) == len(owned)
        assert not {id(held) for held in owned} & {id(other) for other in relied}


FailedSetOwnership.TestCase.settings = settings(
    max_examples=80, stateful_step_count=25, deadline=None
)
TestFailedSetOwnership = FailedSetOwnership.TestCase
