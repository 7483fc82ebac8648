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

from collections import Counter
from itertools import chain
from typing import Dict, Hashable, Set, Tuple

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

        # Candidate risks: hit ratio (computed on the full model) >= threshold,
        # |O_i| counted over the failure map.  A candidate keeps its O_i and
        # hit ratio from here on.
        _, dependents, failed_risks = model.indexes()
        candidate_risks: Dict[Hashable, Tuple[Set[Hashable], float]] = {}
        for risk, hits in Counter(chain.from_iterable(failed_risks.values())).items():
            hit_ratio = hits / len(dependents[risk])
            if hit_ratio >= self.hit_threshold:
                candidate_risks[risk] = (model.failed_elements_for_risk(risk), hit_ratio)

        unexplained = set(signature)
        iteration = 0
        while unexplained and candidate_risks:
            iteration += 1
            best_risk = None
            best_gain: Set[Hashable] = set()
            best_key = None
            for risk, (observations, hit_ratio) in candidate_risks.items():
                gain = observations & unexplained
                sort_key = (len(gain), hit_ratio, _stable_key(risk))
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
                    hit_ratio=candidate_risks[best_risk][1],
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
