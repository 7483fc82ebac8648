"""The fast localization path == the paper's algorithms, written out.

``ScoutLocalizer.localize`` keeps its stage-1 candidates across iterations
and re-evaluates only the risks pruning touched, asks the stage-2 oracle once
per distinct evidence, and ``augment_*`` flags a pair's edges once however
many of its rules are missing.  The naive forms they replaced live here, not
in ``src/``, as the oracles of a differential suite:

* :func:`naive_scout` — Algorithms 1-2 transcribed literally over plain
  dicts: every iteration re-derives the candidate risks from the unexplained
  observations and recounts ``G_i`` / ``O_i`` of each (``pickCandidates``),
  stage 2 asks the oracle per observation, and membership in the hypothesis
  is a scan of its entries;
* :func:`naive_augment` — one ``mark_edge_failed`` per (missing rule, object).

The generated inputs are the ones where a shortcut would show: tie-heavy
models (few risks, many equal gains), a partial risk that reaches hit ratio
1 only once another pick prunes its healthy dependent, partial failures
that reach stage 2 under a change log (``fallback_latest`` on and off); rule
lists with empty provenance fields, a degenerate
``src == dst`` pair, pairs the model does not hold and objects a pair does
not rely on.  Everything must come out equal: ``Hypothesis.to_dict()`` (entry
order included), ``failed_edges()`` and the per-rule flip count — the last
two also through a warm pair index (:func:`_warm_path_alike`): augmented
again, over copies of one cached structure, and after ``add_element`` on
an owning model (on a shared structure it raises and changes nothing).
``derandomize=True``: a red CI run reproduces locally.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set

import pytest
from hypothesis import given, settings, strategies as st

from oracles import element_risks, failed_edges, mark_edge_failed, risks_for_element
from repro.controller.changelog import ChangeLog
from repro.core import RecentChangeOracle, ScoutLocalizer, SelectionReason
from repro.core.hypothesis import Hypothesis, HypothesisEntry
from repro.exceptions import RiskModelError
from repro.policy import EpgPair
from repro.policy.objects import ObjectType
from repro.protocol import Operation
from repro.risk import RiskModel, augment_controller_model, augment_switch_model
from repro.rules import TcamRule

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------- #
# References
# ---------------------------------------------------------------------- #
def naive_scout(
    model: RiskModel, oracle: Optional[RecentChangeOracle] = None
) -> Hypothesis:
    """SCOUT as Algorithms 1-2 state it, from the model's plain contents: the
    failure signature is the model's failed elements."""
    relies = element_risks(model)
    failed = {element: model.failed_risks_for_element(element) for element in relies}

    def dependents(risk, among) -> Set[Hashable]:  # G_i
        return {element for element in among if risk in relies[element]}

    def observed(risk, among) -> Set[Hashable]:  # O_i
        return {element for element in among if risk in failed[element]}

    signature = {element for element in relies if failed[element]}
    entries: List[HypothesisEntry] = []
    explained: Set[Hashable] = set()
    if not signature:
        return Hypothesis(algorithm="SCOUT")

    live = set(relies)
    unexplained = set(signature)
    iteration = 0
    while unexplained:
        iteration += 1
        candidates: Set[Hashable] = set()
        for observation in unexplained & live:
            candidates |= failed[observation]
        # pickCandidates: hit ratio 1, then maximal coverage of `unexplained`.
        hit_set: Dict[Hashable, Set[Hashable]] = {}
        for risk in candidates:
            if len(observed(risk, live)) / len(dependents(risk, live)) == 1.0:
                gain = observed(risk, live) & unexplained
                if gain:
                    hit_set[risk] = gain
        if not hit_set:
            break
        max_gain = max(len(gain) for gain in hit_set.values())
        chosen = {risk for risk, gain in hit_set.items() if len(gain) == max_gain}
        affected: Set[Hashable] = set()
        for risk in chosen:
            affected |= dependents(risk, live)
        for risk in sorted(chosen, key=repr):
            entries.append(
                HypothesisEntry(
                    risk=risk,
                    reason=SelectionReason.HIT_AND_COVERAGE,
                    hit_ratio=1.0,
                    coverage_ratio=len(hit_set[risk]) / len(unexplained),
                    iteration=iteration,
                    explained=set(hit_set[risk]),
                )
            )
            explained |= hit_set[risk]
        live -= affected
        unexplained -= affected

    if oracle is not None:
        for observation in sorted(unexplained, key=repr):
            recent = oracle.recently_changed(set(failed.get(observation, ())))
            for risk in sorted(recent, key=repr):
                known = [entry for entry in entries if entry.risk == risk]
                if known:
                    known[0].explained.add(observation)
                else:
                    everywhere = observed(risk, relies)
                    entries.append(
                        HypothesisEntry(
                            risk=risk,
                            reason=SelectionReason.CHANGE_LOG,
                            hit_ratio=len(everywhere) / len(dependents(risk, relies)),
                            coverage_ratio=len(everywhere & signature) / len(signature),
                            iteration=iteration,
                            explained={observation},
                        )
                    )
                explained.add(observation)

    return Hypothesis(
        entries=entries,
        explained=explained,
        unexplained=signature - explained,
        iterations=iteration,
        algorithm="SCOUT",
    )


def naive_augment(
    model: RiskModel,
    rules: Sequence[TcamRule],
    switch_uid: Optional[str] = None,
    implicate_switch: bool = False,
) -> int:
    """Per-rule augmentation: one edge at a time, every rule on its own.

    With ``switch_uid`` the element is the controller model's ``(switch,
    pair)`` triplet, and ``implicate_switch`` makes the switch one more
    object of every rule.
    """
    flipped = 0
    relies = element_risks(model)
    for rule in rules:
        if rule.src_epg_uid == rule.dst_epg_uid:
            continue  # no such pair
        pair = EpgPair(rule.src_epg_uid, rule.dst_epg_uid)
        element = pair if switch_uid is None else (switch_uid, pair)
        if element not in model:
            continue
        for uid in rule.objects() + ([switch_uid] if implicate_switch else []):
            if uid in relies[element]:
                mark_edge_failed(model, element, uid)
                flipped += 1
    return flipped


# ---------------------------------------------------------------------- #
# Generated inputs
# ---------------------------------------------------------------------- #
@st.composite
def abstract_cases(draw):
    """A small bipartite model with full and partial failures, and a
    change-log oracle."""
    risks = [f"r{i}" for i in range(draw(st.integers(2, 6)))]
    elements = [f"e{i:02d}" for i in range(draw(st.integers(3, 16)))]
    # Few risks, and some with a twin relied on by the same elements: equal
    # gains are the rule, not the exception.
    twinned = draw(st.sets(st.sampled_from(risks)))
    model = RiskModel("generated")
    for element in elements:
        relied_on = draw(st.lists(st.sampled_from(risks), min_size=1, max_size=3))
        twins = [f"{risk}-twin" for risk in relied_on if risk in twinned]
        model.add_element(element, relied_on + twins)
    if draw(st.booleans()):
        # A partial risk whose healthy dependent another pick prunes: "rq"
        # fails whole and is picked, pruning "p-and-q"; only then is "rp"'s
        # hit ratio 1, and it still explains "p-only".
        model.add_element("p-only", ["rp"])
        model.add_element("p-and-q", ["rp", "rq"])
        model.mark_failed({"p-only": {"rp"}, "p-and-q": {"rq"}})
    risks = model.risks()
    for risk in draw(st.lists(st.sampled_from(risks), max_size=3)):
        whole = [risk, f"{risk}-twin"] if risk in twinned else [risk]
        for element in model.elements_for_risk(risk):  # a full failure
            model.mark_failed({element: set(whole)})
    for element in draw(st.lists(st.sampled_from(elements), max_size=8)):
        known = sorted(risks_for_element(model, element))  # a partial one
        some = draw(st.sets(st.sampled_from(known), min_size=1))
        model.mark_failed({element: set(some)})

    log = ChangeLog()
    changes = st.tuples(st.sampled_from(risks + ["r-unseen"]), st.integers(1, 40))
    for uid, timestamp in draw(st.lists(changes, max_size=8)):
        log.record(timestamp, uid, ObjectType.FILTER, Operation.MODIFY)
    oracle = RecentChangeOracle(
        change_log=log,
        window=draw(st.integers(0, 30)),
        now=draw(st.none() | st.integers(1, 60)),
        fallback_latest=draw(st.booleans()),
    )
    return model, oracle


#: Uids rules draw their provenance from: the model's objects, an object no
#: pair relies on, and the empty field of a rule with partial provenance.
EPGS = ["epg:a", "epg:b", "epg:c", "epg:d"]
OBJECTS = ["vrf:1", "vrf:2", "ctr:1", "ctr:2", "flt:1", "flt:2", "flt:3"]
SWITCHES = ["leaf-1", "leaf-2"]


@st.composite
def missing_rules(draw):
    """Rules with every provenance field drawn on its own, duplicates likely."""
    uid = st.sampled_from(OBJECTS + ["obj:unknown", ""])
    epg = st.sampled_from(EPGS + ["epg:unknown", ""])
    rule = st.builds(
        TcamRule,
        vrf_scope=st.just(101),
        src_epg=st.integers(1, 4),
        dst_epg=st.integers(1, 4),
        protocol=st.just("tcp"),
        port=st.integers(80, 83),
        vrf_uid=uid,
        src_epg_uid=epg,  # src == dst happens, as does a stranger
        dst_epg_uid=epg,
        contract_uid=uid,
        filter_uid=uid,
    )
    return draw(st.lists(rule, max_size=25))


@st.composite
def pair_models(draw, switches: Sequence[str] = ()):
    """Some of the EPG pairs, each relying on its EPGs and a few objects; per
    switch as ``(switch, pair)`` triplets when ``switches`` is given."""
    pairs = [EpgPair(a, b) for i, a in enumerate(EPGS) for b in EPGS[i + 1 :]]
    model = RiskModel("generated-pairs")
    # "" as a risk: an empty provenance field must still name no object.
    objects = st.sampled_from(OBJECTS + [""])
    for pair in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        relied_on = draw(st.lists(objects, min_size=1, max_size=4))
        keep_epgs = draw(st.booleans())  # not every pair relies on its EPGs
        risks = relied_on + (list(pair) if keep_epgs else [])
        if not switches:
            model.add_element(pair, risks)
            continue
        for switch_uid in draw(st.sets(st.sampled_from(switches), min_size=1)):
            with_switch = draw(st.booleans())  # nor every triplet on its switch
            model.add_element(
                (switch_uid, pair), risks + ([switch_uid] if with_switch else [])
            )
    return model


def _augmented_alike(fast: RiskModel, naive: RiskModel) -> None:
    assert failed_edges(fast) == failed_edges(naive)
    assert fast.failure_signature() == naive.failure_signature()
    assert ScoutLocalizer().localize(fast).to_dict() == naive_scout(naive).to_dict()


def _owning(model: RiskModel) -> RiskModel:
    """A model owning a structure equal to ``model``'s, no edge failed."""
    owner = RiskModel(model.name)
    for element, risks in element_risks(model).items():
        owner.add_element(element, risks)
    return owner


def _extra_elements(switches: Sequence[str], objects: Sequence[str]):
    """``(element, risks)`` for every pair of the rules' EPGs — the model's
    own pairs gain risks, the rest are new — each relying on ``objects``
    and its EPGs; per switch as triplets when ``switches`` is given."""
    epgs = EPGS + ["epg:unknown", ""]
    for i, a in enumerate(epgs):
        for b in epgs[i + 1 :]:
            pair = EpgPair(a, b)
            risks = list(objects) + list(pair)
            if not switches:
                yield pair, risks
            for switch_uid in switches:
                yield (switch_uid, pair), risks + [switch_uid]


#: What each structure write in :func:`_warm_path_alike` adds to every pair:
#: objects the rules name, so each write changes what they fail.
WRITES = (["vrf:1", "vrf:2", ""], ["ctr:1", "ctr:2"], ["flt:1", "flt:2", "flt:3"], ["obj:unknown"])


def _warm_path_alike(model: RiskModel, augment, reference, switches=()) -> None:
    """``augment`` == ``reference`` (per-rule marking) through the pair index
    as every route fills, shares and drops it: the owner augmented after a
    write left its index unfilled, and again; written to while it owns its
    structure, its index filled; two copies of one cached structure; a
    structure built fresh with what a shared one refuses.  The flip count
    and the failed edges must match each time; ``""`` stays a risk some
    elements rely on, and an empty provenance field still fails no edge.
    Once shared, a structure is read-only: the owner and a copy both refuse
    a write, and no model changes."""

    def alike(fast: RiskModel, naive: RiskModel) -> None:
        assert augment(fast) == reference(naive)
        assert failed_edges(fast) == failed_edges(naive)

    def write(models, objects) -> None:
        for element, risks in _extra_elements(switches, objects):
            for written in models:
                written.add_element(element, risks)

    owner, twin = _owning(model), _owning(model)
    write([owner, twin], WRITES[0])  # the owner's, its index empty
    alike(owner, twin)  # fills it
    alike(owner, twin)  # reads the owner's own index
    write([owner, twin], WRITES[1])  # an owned structure's, its index filled
    alike(owner, twin)
    for _ in range(2):  # copies of one cached structure
        alike(owner.copy(), twin.copy())
    copy = owner.copy()
    held = (element_risks(owner), failed_edges(owner), failed_edges(copy))
    for shared, objects in ((owner, WRITES[2]), (copy, WRITES[3])):
        with pytest.raises(RiskModelError):
            write([shared], objects)
    assert (element_risks(owner), failed_edges(owner), failed_edges(copy)) == held
    # What those writes would have made: a structure built fresh, its own index.
    fast, naive = _owning(owner), _owning(owner)
    write([fast, naive], WRITES[2])
    alike(fast, naive)
    write([fast, naive], WRITES[3])  # its index filled
    alike(fast, naive)
    alike(owner.copy(), twin.copy())  # the owner's index never saw that structure


# ---------------------------------------------------------------------- #
# The differential tests
# ---------------------------------------------------------------------- #
@DIFFERENTIAL
@given(abstract_cases())
def test_scout_equals_the_literal_algorithm(case):
    model, oracle = case
    before = failed_edges(model)
    # Stage 1 alone, and with the change-log stage.
    for asked in (None, oracle):
        hypothesis = ScoutLocalizer(change_oracle=asked).localize(model)
        reference = naive_scout(model, asked)
        assert hypothesis.to_dict() == reference.to_dict()
        order = [entry.risk for entry in reference.entries]
        assert [entry.risk for entry in hypothesis.entries] == order
        assert hypothesis.objects() == set(order)
        round_trip = Hypothesis.from_dict(hypothesis.to_dict())
        assert round_trip.to_dict() == reference.to_dict()
    assert failed_edges(model) == before  # SCOUT leaves the model as it was


@DIFFERENTIAL
@given(abstract_cases(), abstract_cases())
def test_merge_keeps_the_first_entry_for_a_risk(case, other):
    """Both cases draw from the same risk names, so merged entries collide."""
    first = ScoutLocalizer(change_oracle=case[1]).localize(case[0])
    second = ScoutLocalizer(change_oracle=other[1]).localize(other[0])
    merged = first.merge(second)
    expected: List[HypothesisEntry] = []
    for entry in first.entries + second.entries:
        if all(entry.risk != kept.risk for kept in expected):
            expected.append(entry)
    assert merged.entries == expected
    assert all(merged.entry_for(entry.risk) is entry for entry in expected)
    assert merged.explained == first.explained | second.explained
    assert len(merged) == len(expected) and "r-nowhere" not in merged


@DIFFERENTIAL
@given(pair_models(), missing_rules())
def test_switch_augmentation_equals_per_rule_marking(model, rules):
    _warm_path_alike(
        model,
        lambda fast: augment_switch_model(fast, rules),
        lambda naive: naive_augment(naive, rules),
    )
    naive = model.copy()
    assert augment_switch_model(model, rules) == naive_augment(naive, rules)
    _augmented_alike(model, naive)


@DIFFERENTIAL
@given(
    pair_models(switches=SWITCHES),
    st.dictionaries(st.sampled_from(SWITCHES + ["leaf-unknown"]), missing_rules()),
    st.booleans(),
)
def test_controller_augmentation_equals_per_rule_marking(model, missing, implicate):
    def reference(naive: RiskModel) -> int:
        return sum(
            naive_augment(naive, rules, switch_uid, implicate_switch=implicate)
            for switch_uid, rules in missing.items()
        )

    _warm_path_alike(
        model,
        lambda fast: augment_controller_model(fast, missing, include_switch_risks=implicate),
        reference,
        switches=SWITCHES + ["leaf-unknown"],
    )
    naive = model.copy()
    flipped = augment_controller_model(model, missing, include_switch_risks=implicate)
    assert flipped == reference(naive)
    _augmented_alike(model, naive)
