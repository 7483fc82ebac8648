"""Property-based tests for the localization algorithms and policy round-trips."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import ScoreLocalizer, ScoutLocalizer
from repro.policy import (
    PolicyBuilder,
    PolicyIndex,
    policy_from_json,
    policy_to_json,
    validate_policy,
)
from repro.risk import RiskModel


# ---------------------------------------------------------------------------
# Localization invariants on randomly built risk models with known ground truth.
# ---------------------------------------------------------------------------
@st.composite
def faulted_models(draw):
    """A model with a known set of *fully* failed risks (plus noise-free edges)."""
    num_risks = draw(st.integers(min_value=2, max_value=8))
    num_elements = draw(st.integers(min_value=3, max_value=14))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    risks = [f"r{i}" for i in range(num_risks)]
    model = RiskModel("random")
    membership = {}
    for e in range(num_elements):
        chosen = rng.sample(risks, rng.randint(1, min(4, num_risks)))
        membership[f"e{e}"] = set(chosen)
        model.add_element(f"e{e}", chosen)
    # Choose ground-truth faulty risks and fail *all* of their dependents.
    ground_truth = set(rng.sample(risks, rng.randint(1, min(3, num_risks))))
    ground_truth = {risk for risk in ground_truth if model.elements_for_risk(risk)}
    for risk in ground_truth:
        for element in model.elements_for_risk(risk):
            model.mark_edge_failed(element, risk)
    return model, ground_truth


class TestLocalizationProperties:
    @given(faulted_models())
    @settings(max_examples=60, deadline=None)
    def test_scout_explains_every_observation_on_full_faults(self, case):
        model, ground_truth = case
        hypothesis = ScoutLocalizer().localize(model)
        # Full faults have hit ratio 1, so stage 1 must explain everything.
        assert hypothesis.unexplained == set()
        if ground_truth:
            assert hypothesis.objects()

    @given(faulted_models())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_only_contains_failed_risks(self, case):
        model, _ = case
        for localizer in (ScoutLocalizer(), ScoreLocalizer(1.0), ScoreLocalizer(0.6)):
            hypothesis = localizer.localize(model)
            failed_risks = set()
            for element in model.failure_signature():
                failed_risks |= model.failed_risks_for_element(element)
            assert hypothesis.objects() <= failed_risks

    @given(faulted_models())
    @settings(max_examples=60, deadline=None)
    def test_scout_covers_ground_truth_or_equivalent_risk(self, case):
        """Every observation caused by a faulted risk is explained by SCOUT."""
        model, ground_truth = case
        hypothesis = ScoutLocalizer().localize(model)
        explained = hypothesis.explained
        for risk in ground_truth:
            assert model.failed_elements_for_risk(risk) <= explained

    @given(faulted_models())
    @settings(max_examples=40, deadline=None)
    def test_scout_hypothesis_never_larger_than_suspect_set(self, case):
        model, _ = case
        hypothesis = ScoutLocalizer().localize(model)
        assert len(hypothesis.objects()) <= max(1, len(model.suspect_risks()))

    @given(faulted_models())
    @settings(max_examples=40, deadline=None)
    def test_score_recall_never_exceeds_scout_on_full_faults(self, case):
        model, ground_truth = case
        if not ground_truth:
            return
        scout = ScoutLocalizer().localize(model).objects()
        score = ScoreLocalizer(1.0).localize(model).objects()
        scout_recall = len(scout & ground_truth) / len(ground_truth)
        score_recall = len(score & ground_truth) / len(ground_truth)
        assert scout_recall >= score_recall or scout_recall == 1.0


# ---------------------------------------------------------------------------
# Policy generation / serialization round-trip on random small policies.
# ---------------------------------------------------------------------------
@st.composite
def random_policies(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    builder = PolicyBuilder(tenant=f"t{seed % 7}")
    vrfs = [builder.vrf(f"v{i}") for i in range(rng.randint(1, 3))]
    epgs = [builder.epg(f"g{i}", rng.choice(vrfs)) for i in range(rng.randint(2, 8))]
    filters = [builder.filter(f"f{i}", [("tcp", 1000 + i)]) for i in range(rng.randint(1, 4))]
    for i in range(rng.randint(1, 6)):
        a, b = rng.sample(epgs, 2)
        if builder.tenant.epgs[a].vrf_uid == builder.tenant.epgs[b].vrf_uid:
            builder.allow(a, b, filters=[rng.choice(filters)], contract=f"c{i}")
    for i in range(rng.randint(0, 6)):
        builder.endpoint(f"ep{i}", rng.choice(epgs), switch=f"leaf-{rng.randint(1, 3)}")
    return builder.build()


class TestPolicyProperties:
    @given(random_policies())
    @settings(max_examples=50, deadline=None)
    def test_builder_output_is_always_valid(self, policy):
        validate_policy(policy)

    @given(random_policies())
    @settings(max_examples=50, deadline=None)
    def test_serialization_round_trip(self, policy):
        restored = policy_from_json(policy_to_json(policy))
        assert restored.summary() == policy.summary()
        original, copy = PolicyIndex(policy), PolicyIndex(restored)
        assert copy.pairs == original.pairs
        for pair in original.pairs:
            assert copy.risks_for_pair(pair) == original.risks_for_pair(pair)

    @given(random_policies())
    @settings(max_examples=50, deadline=None)
    def test_pair_risk_symmetry(self, policy):
        index = PolicyIndex(policy)
        for pair in index.pairs:
            risks = index.risks_for_pair(pair)
            assert pair.first in risks and pair.second in risks
            for risk in risks:
                assert pair in index.pairs_for_object(risk)
