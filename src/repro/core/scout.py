"""SCOUT: the paper's fault-localization algorithm (§IV-C, Algorithms 1-2).

SCOUT runs on one input, the augmented risk model: its observations, the
failure signature F, are the model's failed elements.  It runs in two
stages:

**Stage 1 — greedy hit/coverage selection.**  While unexplained observations
remain, compute the hit and coverage ratios of every shared risk with a
failed edge to an unexplained observation; among the risks with hit ratio
exactly 1 (all of their dependents failed), pick the ones with the highest
coverage of the still-unexplained observations (Algorithm 2), add them to the
hypothesis, and prune every element that depends on them (Algorithm 1,
lines 4-19).  The loop ends when no risk has hit ratio 1 anymore.

Stage 1 prunes by counting, over the caller's model as it is (read through
:meth:`RiskModel.indexes`): one count over the failure map gives ``|O_i|``
for every risk with a failed edge (K, the only risks that can explain an
observation), and per risk of K it keeps live counts — ``|G_i| - |O_i|`` and
the gain ``|O_i|`` still unexplained — beside its own pruned and unexplained
sets, so the model is neither copied nor edited.  A picked risk has no
healthy dependent left, so what it explains is ``G_i`` ∩ unexplained.
Pruning changes the counts of exactly the risks the pruned elements relied
on, so only those are scored again and an iteration costs what it pruned.
A picked risk leaves K, so the loop runs at most ``|K|`` iterations: a
miscount can make it wrong, never endless.  The literal every-iteration
rescan is the reference the differential suite holds this to
(``tests/property/test_scout_reference.py``).

**Stage 2 — change-log lookup.**  Observations left unexplained are caused by
*partially* failed objects (hit ratio < 1), which is the case SCORE treats as
noise.  For each residual observation SCOUT inspects the controller change
log and selects the failed objects "to which some actions are recently
applied" (lines 20-25).  Observations with the same failed objects ask the
same question, so within one run the oracle is asked once per distinct set.

The change-log stage is pluggable: any object implementing
:class:`ChangeLogOracle`'s interface can be supplied, the default adapter
wrapping :class:`repro.controller.changelog.ChangeLog` with a recency window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Hashable, Iterable, Optional, Protocol, Set, Tuple

from ..controller.changelog import ChangeLog, ChangeRecord
from ..obs import span
from ..risk.model import RiskModel
from .hypothesis import Hypothesis, HypothesisEntry, SelectionReason

__all__ = ["ChangeLogOracle", "RecentChangeOracle", "ScoutLocalizer"]


class ChangeLogOracle(Protocol):
    """The query SCOUT's second stage needs from the controller change log.

    The answer must be a function of the candidate *set*: one run asks once
    per distinct set and reuses the answer for every observation that has it.
    """

    def recently_changed(self, candidates: Iterable[Hashable]) -> Set[Hashable]:
        """Return the subset of ``candidates`` with recent management actions."""
        ...


def _candidate_uid(candidate: Hashable) -> Optional[str]:
    """The change-log key for a candidate risk.

    Risk keys are usually the object uids themselves; risks that are richer
    objects are looked up through their ``uid`` attribute.  Candidates with
    no string uid can never have change records and are excluded explicitly
    (rather than silently, as a type filter would).
    """
    if isinstance(candidate, str):
        return candidate
    uid = getattr(candidate, "uid", None)
    return uid if isinstance(uid, str) else None


@dataclass
class RecentChangeOracle:
    """Default change-log oracle: a sliding recency window over a ChangeLog.

    ``window`` is measured in logical-clock ticks backwards from ``now``
    (defaulting to the newest record in the log).  With ``fallback_latest``
    enabled, a candidate set with no record inside the window falls back to
    the candidates with the most recent record overall — useful when an
    operator runs localization long after the offending change.  Candidates
    whose latest records tie on the timestamp are *all* returned, so the
    result never depends on iteration order.

    The recency map is computed once per ``(change log, reference, window,
    len(change log))``: the log is append-only, so its next append — like
    a new ``now`` or ``window`` — retires the memo.
    """

    change_log: ChangeLog
    window: int = 100
    now: Optional[int] = None
    fallback_latest: bool = True
    _recency: Optional[Tuple[Tuple, Dict[str, ChangeRecord]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _recent(self) -> Dict[str, ChangeRecord]:
        """``change_log.recently_changed_objects`` at the oracle's reference."""
        log = self.change_log
        reference = self.now if self.now is not None else log.last_timestamp()
        key = (log, reference, self.window, len(log))
        held = self._recency
        if held is not None and held[0] == key:
            return held[1]
        with span("scout.recency", records=len(log)):
            recent = log.recently_changed_objects(reference, self.window)
        self._recency = (key, recent)
        return recent

    def recently_changed(self, candidates: Iterable[Hashable]) -> Set[Hashable]:
        # Distinct candidates may share a change-log uid: keep them all, so
        # the result is a pure function of the candidate *set*.
        by_uid: Dict[str, Set[Hashable]] = {}
        for candidate in candidates:
            uid = _candidate_uid(candidate)
            if uid is not None:
                by_uid.setdefault(uid, set()).add(candidate)
        if not by_uid:
            return set()
        recent = self._recent()
        selected = {
            candidate
            for uid, group in by_uid.items()
            if uid in recent
            for candidate in group
        }
        if selected or not self.fallback_latest:
            return selected
        # Fallback: every candidate sharing the newest change timestamp.
        best_time = -1
        best: Set[Hashable] = set()
        for uid in sorted(by_uid):
            record = self.change_log.latest_for_object(uid)
            if record is None:
                continue
            if record.timestamp > best_time:
                best_time = record.timestamp
                best = set(by_uid[uid])
            elif record.timestamp == best_time:
                best.update(by_uid[uid])
        return best


class ScoutLocalizer:
    """The SCOUT greedy localization algorithm."""

    def __init__(self, change_oracle: Optional[ChangeLogOracle] = None) -> None:
        self.change_oracle = change_oracle

    @property
    def name(self) -> str:
        return "SCOUT"

    # ------------------------------------------------------------------ #
    # Algorithms 1-2: the main loop and pickCandidates
    # ------------------------------------------------------------------ #
    def localize(self, model: RiskModel) -> Hypothesis:
        """Run SCOUT over an augmented risk model and return its hypothesis.

        The failure signature F is the model's own: its failed elements.
        """
        signature = model.failure_signature()
        hypothesis = Hypothesis(algorithm=self.name)
        if not signature:
            return hypothesis

        relied_on, dependents, failed_risks = model.indexes()
        unexplained = set(signature)
        pruned: Set[Hashable] = set()
        iteration = 0
        # Per risk of K, two live counts: ``healthy`` — its dependents not
        # failed on it, |G_i| - |O_i| — and ``gain`` — |O_i ∩ unexplained|.
        # The hit ratio is exactly 1 when ``healthy`` is 0, and Algorithm 2's
        # candidates are those risks with a gain: risk -> gain.  A picked risk
        # leaves K, so stage 1 ends after at most |K| iterations whatever
        # the counts say.
        healthy: Dict[Hashable, int] = {}
        gain: Dict[Hashable, int] = {}
        candidates: Dict[Hashable, int] = {}

        def score(risks: Iterable[Hashable]) -> None:
            for risk in risks:
                if gain[risk] and not healthy[risk]:
                    candidates[risk] = gain[risk]
                else:
                    candidates.pop(risk, None)

        with span("scout.stage1", observations=len(signature)) as stage1:
            # K: the risks with a failed edge, each with |O_i|.  No other
            # risk can ever explain an observation, so only these are
            # counted.  Every failed element is an observation, so the gain
            # starts at |O_i|.
            observed = Counter(chain.from_iterable(failed_risks.values()))
            for risk, hits in observed.items():
                healthy[risk] = len(dependents[risk]) - hits
                gain[risk] = hits
            score(healthy)
            reevaluated = 0
            while unexplained:
                iteration += 1
                if not candidates:
                    break
                max_gain = max(candidates.values())
                faulty_set = sorted(
                    [risk for risk, gained in candidates.items() if gained == max_gain],
                    key=repr,
                )
                for risk in faulty_set:
                    # No healthy dependent is left unpruned: G_i ∩ unexplained
                    # is O_i ∩ unexplained.
                    explained = dependents[risk] & unexplained
                    hypothesis.add(
                        HypothesisEntry(
                            risk=risk,
                            reason=SelectionReason.HIT_AND_COVERAGE,
                            hit_ratio=1.0,
                            coverage_ratio=len(explained) / len(unexplained),
                            iteration=iteration,
                            explained=explained,
                        )
                    )
                    del healthy[risk], gain[risk], candidates[risk]
                # Prune every element (failed or not) depending on a chosen
                # risk.  Only the risks those elements relied on lose a
                # dependent: they alone are counted down and scored again, so
                # an iteration costs what it pruned.
                affected: Set[Hashable] = set()
                for risk in faulty_set:
                    affected |= dependents[risk]
                affected -= pruned
                pruned |= affected
                rescored: Set[Hashable] = set()
                for element in affected:
                    # A failed element not yet pruned is still unexplained.
                    hits = failed_risks.get(element, ())
                    for risk in relied_on[element]:
                        if risk in healthy:
                            rescored.add(risk)
                            if risk not in hits:
                                healthy[risk] -= 1
                            else:
                                gain[risk] -= 1
                unexplained -= affected
                score(rescored)
                reevaluated += len(rescored)
            stage1.count("iterations", iteration)
            stage1.count("reevaluated", reevaluated)

        # Stage 2: explain the residual observations via the change log.
        oracle = self.change_oracle
        if unexplained and oracle is not None:
            with span("scout.stage2", residual=len(unexplained)):
                # Observations with the same failed objects are the same
                # question: the oracle answers for a candidate *set*.
                answers: Dict[frozenset, Set[Hashable]] = {}
                for observation in sorted(unexplained, key=repr):
                    # Algorithm 1's getFailedObjects.
                    evidence = frozenset(model.failed_risks_for_element(observation))
                    recent = answers.get(evidence)
                    if recent is None:
                        recent = answers[evidence] = oracle.recently_changed(evidence)
                    for risk in sorted(recent, key=repr):
                        entry = hypothesis.entry_for(risk)
                        if entry is not None:
                            entry.explained.add(observation)
                            hypothesis.explained.add(observation)
                            continue
                        hypothesis.add(
                            HypothesisEntry(
                                risk=risk,
                                reason=SelectionReason.CHANGE_LOG,
                                hit_ratio=observed[risk] / len(dependents[risk]),
                                coverage_ratio=observed[risk] / len(signature),
                                iteration=iteration,
                                explained={observation},
                            )
                        )

        hypothesis.unexplained = signature - hypothesis.explained
        hypothesis.iterations = iteration
        return hypothesis
