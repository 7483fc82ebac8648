"""SCORE: the baseline risk-modeling localization algorithm (§IV-B).

SCORE (Kompella et al., "Fault localization via risk modeling") greedily
builds a hypothesis by repeatedly picking the shared risk with the highest
*coverage ratio* among the risks whose *hit ratio* clears a fixed threshold.
The paper reimplements it as the baseline and shows its weakness in the
policy-deployment setting: partially-failed objects (hit ratio < threshold)
are treated as noise and never selected, which costs recall.

The implementation follows the classic greedy loop:

1. compute hit ratio ``|O_i|/|G_i|`` for every risk with at least one failed
   edge to an observation (a failed element of the model: the failure
   signature F is the model's own);
2. keep the risks with hit ratio ≥ threshold (the *candidate set*);
3. repeatedly pick from the candidate set the risk explaining the largest
   number of still-unexplained observations (ties broken by hit ratio, then
   deterministically by key) until no candidate explains anything new;
4. everything still unexplained is reported as such.
"""

from __future__ import annotations

from typing import Hashable, Set

from ..exceptions import LocalizationError
from ..risk.model import RiskModel
from .hypothesis import Hypothesis, HypothesisEntry, SelectionReason

__all__ = ["ScoreLocalizer"]


class ScoreLocalizer:
    """Greedy min-set-cover localization with a hit-ratio threshold."""

    def __init__(self, hit_threshold: float = 1.0) -> None:
        if not 0.0 < hit_threshold <= 1.0:
            raise LocalizationError(
                f"hit threshold must be in (0, 1], got {hit_threshold}"
            )
        self.hit_threshold = hit_threshold

    @property
    def name(self) -> str:
        return f"SCORE-{self.hit_threshold:g}"

    # ------------------------------------------------------------------ #
    # Localization
    # ------------------------------------------------------------------ #
    def localize(self, model: RiskModel) -> Hypothesis:
        """Run SCORE over an augmented risk model and return its hypothesis.

        The failure signature F is the model's own: its failed elements.
        """
        signature = model.failure_signature()
        hypothesis = Hypothesis(algorithm=self.name)
        if not signature:
            return hypothesis

        # Candidate risks: hit ratio (computed on the full model) >= threshold.
        candidate_risks: dict[Hashable, Set[Hashable]] = {}
        for observation in signature:
            for risk in model.failed_risks_for_element(observation):
                if risk in candidate_risks:
                    continue
                if model.hit_ratio(risk) >= self.hit_threshold:
                    candidate_risks[risk] = model.failed_elements_for_risk(risk)

        unexplained = set(signature)
        iteration = 0
        while unexplained and candidate_risks:
            iteration += 1
            best_risk = None
            best_gain: Set[Hashable] = set()
            best_key = None
            for risk, observations in candidate_risks.items():
                gain = observations & unexplained
                sort_key = (len(gain), model.hit_ratio(risk), _stable_key(risk))
                if best_key is None or sort_key > best_key:
                    best_key = sort_key
                    best_risk = risk
                    best_gain = gain
            if best_risk is None or not best_gain:
                break
            hypothesis.add(
                HypothesisEntry(
                    risk=best_risk,
                    reason=SelectionReason.HIT_AND_COVERAGE,
                    hit_ratio=model.hit_ratio(best_risk),
                    coverage_ratio=len(best_gain) / len(signature),
                    iteration=iteration,
                    explained=set(best_gain),
                )
            )
            unexplained -= best_gain
            candidate_risks.pop(best_risk, None)

        hypothesis.unexplained = unexplained
        hypothesis.iterations = iteration
        return hypothesis


def _stable_key(risk: Hashable) -> str:
    """Deterministic tie-break key for arbitrary hashable risk identifiers."""
    return repr(risk)
