"""Bipartite risk model.

A risk model (§III-B) is a bipartite graph between *elements* (the things
that can be impacted — EPG pairs in the switch risk model, (switch, EPG pair)
triplets in the controller risk model) and *shared risks* (policy objects).
An edge exists when the element relies on the risk; after the L-T equivalence
check, edges touched by missing rules are flagged ``fail`` (§III-C).

The model exposes exactly the quantities the localization algorithms need:

* ``G_i`` — elements depending on risk *i* (:meth:`elements_for_risk`);
* ``O_i`` — failed elements depending on risk *i*
  (:meth:`failed_elements_for_risk`);
* the failure signature ``F`` (:meth:`failure_signature`);
* hit ratio ``|O_i|/|G_i|`` and coverage ratio ``|O_i|/|F|``;
* pruning of explained elements, which is how SCOUT iterates.

Elements and risks are identified by hashable keys; the model does not care
whether an element is an :class:`~repro.policy.objects.EpgPair` or a
``(switch, pair)`` tuple, which lets the switch and controller models share
the implementation.  All failure state is kept in per-element and per-risk
indexes so hit/coverage ratio queries stay cheap on production-scale models
(tens of thousands of elements).

A model is two layers.  The *structure* — which element relies on which
risk — depends only on the policy, so the builders compute it once per
:class:`~repro.policy.graph.PolicyIndex` and every model of that policy
reads the same two maps (:func:`cached_model`).  What one audit adds — failed
edges, pruned elements — lives in the model itself, as an overlay every query
reads through.  Nothing edits a structure more than one model can see:
:meth:`RiskModel.add_element` takes a private copy first, so whatever is done
to one model, no other model notices.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set

from ..exceptions import RiskModelError

__all__ = ["RiskModel", "cached_model"]

ElementKey = Hashable
RiskKey = Hashable


class RiskModel:
    """A bipartite element ↔ shared-risk dependency graph."""

    def __init__(self, name: str = "risk-model") -> None:
        self.name = name
        #: True when a builder handed this model out over a structure its
        #: index already held (see :func:`cached_model`).
        self.structure_reused = False
        # Structure.  Written only while no other model can see it.
        self._element_risks: Dict[ElementKey, Set[RiskKey]] = {}
        self._risk_elements: Dict[RiskKey, Set[ElementKey]] = {}
        self._structure_shared = False
        # Failure state, indexed from both sides for O(1) ratio queries.
        self._failed_risks_by_element: Dict[ElementKey, Set[RiskKey]] = {}
        self._failed_elements_by_risk: Dict[RiskKey, Set[ElementKey]] = {}
        # Pruning: the removed elements and, per risk, how many of its
        # dependents they are.  Always a subset of the structure's elements.
        self._pruned: Set[ElementKey] = set()
        self._pruned_dependents: Dict[RiskKey, int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_element(self, element: ElementKey, risks: Iterable[RiskKey]) -> None:
        """Register an element and the shared risks it relies on."""
        risk_set = set(risks)
        if not risk_set:
            raise RiskModelError(
                f"element {element!r} must depend on at least one risk"
            )
        self._own_structure()
        existing = self._element_risks.setdefault(element, set())
        existing.update(risk_set)
        for risk in risk_set:
            self._risk_elements.setdefault(risk, set()).add(element)

    def _own_structure(self) -> None:
        """Before an edit: make the structure this model's alone and exactly
        its live part (what pruning removed really goes)."""
        if not (self._structure_shared or self._pruned):
            return
        pruned = self._pruned
        self._element_risks = {
            element: set(risks)
            for element, risks in self._element_risks.items()
            if element not in pruned
        }
        self._risk_elements = {
            risk: live
            for risk, dependents in self._risk_elements.items()
            if (live := dependents - pruned)
        }
        self._structure_shared = False
        self._pruned = set()
        self._pruned_dependents = {}

    def mark_element_failed(
        self, element: ElementKey, risks: Optional[Iterable[RiskKey]] = None
    ) -> Set[RiskKey]:
        """Flag the edges from ``element`` to ``risks`` (by default, to every
        risk it relies on) as fail, in one step; returns the risks flagged.

        This is the defensive form augmentation needs: an element the model
        does not hold (never added, or pruned) relies on nothing, and a risk
        the element does not rely on is left out, neither being an error.
        """
        if element not in self:
            return set()
        relied_on = self._element_risks[element]
        failed = set(relied_on) if risks is None else relied_on.intersection(risks)
        if failed:
            self._failed_risks_by_element.setdefault(element, set()).update(failed)
            by_risk = self._failed_elements_by_risk
            for risk in failed:
                by_risk.setdefault(risk, set()).add(element)
        return failed

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def elements(self) -> List[ElementKey]:
        if not self._pruned:
            return list(self._element_risks)
        return [
            element for element in self._element_risks if element not in self._pruned
        ]

    def risks(self) -> List[RiskKey]:
        """Every risk at least one (un-pruned) element depends on."""
        if not self._pruned:
            return list(self._risk_elements)
        pruned = self._pruned_dependents
        return [
            risk
            for risk, dependents in self._risk_elements.items()
            if len(dependents) > pruned.get(risk, 0)
        ]

    def __contains__(self, element: ElementKey) -> bool:
        return element in self._element_risks and element not in self._pruned

    def elements_for_risk(self, risk: RiskKey) -> Set[ElementKey]:
        """``G_i`` — every element that depends on ``risk``."""
        dependents = self._risk_elements.get(risk)
        if dependents is None:
            return set()
        if risk in self._pruned_dependents:
            return dependents - self._pruned
        return set(dependents)

    # ------------------------------------------------------------------ #
    # Failure queries
    # ------------------------------------------------------------------ #
    def failure_signature(self) -> Set[ElementKey]:
        """``F`` — the set of observations (elements with at least one failed edge)."""
        return {
            element
            for element, risks in self._failed_risks_by_element.items()
            if risks
        }

    def failed_risks_for_element(self, element: ElementKey) -> Set[RiskKey]:
        """Risks connected to ``element`` through a failed edge (``getFailedObjects``)."""
        return set(self._failed_risks_by_element.get(element, ()))

    def failed_elements_for_risk(self, risk: RiskKey) -> Set[ElementKey]:
        """``O_i`` — failed elements whose failed edges include ``risk``."""
        return set(self._failed_elements_by_risk.get(risk, ()))

    # ------------------------------------------------------------------ #
    # Ratios
    # ------------------------------------------------------------------ #
    def hit_ratio(self, risk: RiskKey) -> float:
        """``|O_i| / |G_i|`` — fraction of the risk's dependents that failed."""
        dependents = len(self._risk_elements.get(risk, ()))
        dependents -= self._pruned_dependents.get(risk, 0)
        if not dependents:
            return 0.0
        failed = self._failed_elements_by_risk.get(risk, ())
        return len(failed) / dependents

    def coverage_ratio(
        self, risk: RiskKey, failure_signature: Optional[Set[ElementKey]] = None
    ) -> float:
        """``|O_i| / |F|`` — fraction of the failure signature the risk explains."""
        signature = (
            failure_signature
            if failure_signature is not None
            else self.failure_signature()
        )
        if not signature:
            return 0.0
        failed = self._failed_elements_by_risk.get(risk, set()) & signature
        return len(failed) / len(signature)

    # ------------------------------------------------------------------ #
    # Mutation used by the localization algorithms
    # ------------------------------------------------------------------ #
    def prune_elements(self, elements: Iterable[ElementKey]) -> Set[RiskKey]:
        """Remove elements (and their edges) from the model; returns the
        risks they relied on.

        SCOUT prunes every element that depends on a risk it has just added
        to the hypothesis, so the next iteration's hit and coverage ratios
        are computed on the reduced model (Algorithm 1, line 16).  Only the
        returned risks lost a dependent: ``G_i`` and ``O_i`` of every other
        risk are what they were.  The structure is left alone: the removal
        is recorded beside it, at the cost of the pruned elements' edges.
        """
        touched: Set[RiskKey] = set()
        pruned_dependents = self._pruned_dependents
        for element in list(elements):
            if element not in self:
                continue
            self._pruned.add(element)
            risks = self._element_risks[element]
            touched.update(risks)
            for risk in risks:
                pruned_dependents[risk] = pruned_dependents.get(risk, 0) + 1
            failed_risks = self._failed_risks_by_element.pop(element, set())
            for risk in failed_risks:
                failed_set = self._failed_elements_by_risk.get(risk)
                if failed_set is not None:
                    failed_set.discard(element)
                    if not failed_set:
                        del self._failed_elements_by_risk[risk]
        return touched

    def copy(self) -> "RiskModel":
        """An independent model over the same structure.

        Costs what the overlay holds (failed edges and pruned elements), not
        what the fabric does: the structure is shared, and from here on
        neither model edits it in place (see :meth:`add_element`).
        """
        clone = RiskModel(name=self.name)
        if not self._structure_shared:
            self._structure_shared = True
        clone._structure_shared = True
        clone._element_risks = self._element_risks
        clone._risk_elements = self._risk_elements
        clone._failed_risks_by_element = {
            el: set(risks) for el, risks in self._failed_risks_by_element.items()
        }
        clone._failed_elements_by_risk = {
            risk: set(els) for risk, els in self._failed_elements_by_risk.items()
        }
        clone._pruned = set(self._pruned)
        clone._pruned_dependents = dict(self._pruned_dependents)
        return clone

    # ------------------------------------------------------------------ #
    # Introspection / export
    # ------------------------------------------------------------------ #
    def suspect_risks(self) -> Set[RiskKey]:
        """Every risk that a failed element relies on (the admin's raw suspect set).

        This is the denominator of the paper's suspect-set-reduction metric
        γ: without fault localization an admin would have to inspect all of
        these objects.
        """
        suspects: Set[RiskKey] = set()
        for element in self.failure_signature():
            suspects.update(self._element_risks.get(element, ()))
        return suspects

    def summary(self) -> Dict[str, int]:
        return {
            "elements": len(self._element_risks) - len(self._pruned),
            "risks": len(self.risks()),
            "edges": sum(
                len(risks)
                for element, risks in self._element_risks.items()
                if element not in self._pruned
            ),
            "failed_elements": len(self.failure_signature()),
            "failed_edges": sum(
                len(risks) for risks in self._failed_risks_by_element.values()
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return (
            f"RiskModel(name={self.name!r}, elements={s['elements']}, "
            f"risks={s['risks']}, failed_elements={s['failed_elements']})"
        )


def cached_model(
    index,
    key: Hashable,
    build: Callable[[], RiskModel],
    name: str,
    leaf: Optional[str] = None,
) -> RiskModel:
    """A fresh model named ``name`` over the structure ``index`` holds under
    ``key``, which ``build`` computes the first time it is asked for.

    ``index`` is a :class:`~repro.policy.graph.PolicyIndex`; it keeps the
    built model — never handed out, so never touched again — and so do the
    indexes derived from it while the pairs it reads stand (``leaf``'s, or
    with ``None`` every pair: see :meth:`PolicyIndex.risk_structure`).
    Callers get overlays on it.
    """

    def structure() -> RiskModel:
        held = build()
        held._structure_shared = True  # before anyone else can see it
        return held

    held, reused = index.risk_structure(key, structure, leaf)
    model = held.copy()
    model.name = name
    model.structure_reused = reused
    return model
