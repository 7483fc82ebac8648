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
* the three maps themselves, read-only, for the localizers, which count
  over them (:meth:`indexes`).

Elements and risks are identified by hashable keys; the model does not care
whether an element is an :class:`~repro.policy.objects.EpgPair` or a
``(switch, pair)`` tuple, which lets the switch and controller models share
the implementation.

A model is two things.  The *structure* — which element relies on which
risk — depends only on the policy, so the builders compute it once per
:class:`~repro.policy.graph.PolicyIndex` and every model of that policy
reads the same two maps (:func:`cached_model`).  Once shared — handed to a
copy or kept on an index — it is read-only: :meth:`RiskModel.add_element`
raises.  What one audit adds lives in the model itself, in one *failure
map*: the failed risks of each failed element.  ``O_i`` and both ratios are
derived from ``G_i`` and that map, so un-failing an element is one delete.

Beside the structure sits augmentation's *pair index* (:meth:`RiskModel.pair_index`):
each directed ``(src, dst)`` EPG pair a missing rule has named, mapped to
the element it observes and the risks that element relies on.  It is
derived from the structure alone, so it is shared like it — filled on first
use by whichever model augments, read by every copy — and dropped by any
structure write.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Hashable, Iterable, List, Mapping
from typing import Optional, Set, Tuple

from ..exceptions import RiskModelError

__all__ = ["RiskModel", "cached_model"]

ElementKey = Hashable
RiskKey = Hashable
Index = Mapping[Hashable, AbstractSet[Hashable]]
#: What a pair index holds for one directed ``(src, dst)``: the element and
#: the risks it relies on that a provenance field can name, or ``None`` when
#: the model has no such element.
PairEntry = Optional[Tuple[ElementKey, AbstractSet[RiskKey]]]


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
        #: Pair index per augmentation scope (see :meth:`pair_index`); it
        #: belongs to the structure, and goes wherever the structure goes.
        self._pair_indexes: Dict[Hashable, Dict[Tuple[str, str], PairEntry]] = {}
        #: Pairs this model's augmentations resolved: first uses of the
        #: shared pair index, which every later copy then reads.
        self.pairs_resolved = 0
        # Failure state: the one failure map, failed risks per failed element.
        self._failed_risks_by_element: Dict[ElementKey, Set[RiskKey]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_element(self, element: ElementKey, risks: Iterable[RiskKey]) -> None:
        """Register an element and the shared risks it relies on.

        Only before the structure is shared: on a copy, or on a model whose
        structure a copy or an index holds, this raises and changes nothing.
        """
        if self._structure_shared:
            raise RiskModelError(
                f"{self.name}: the structure is shared, so it is read-only"
            )
        risk_set = set(risks)
        if not risk_set:
            raise RiskModelError(
                f"element {element!r} must depend on at least one risk"
            )
        self._pair_indexes.clear()
        self._element_risks.setdefault(element, set()).update(risk_set)
        for risk in risk_set:
            self._risk_elements.setdefault(risk, set()).add(element)

    def mark_element_failed(self, element: ElementKey) -> Set[RiskKey]:
        """Flag every edge of ``element`` fail; returns the risks flagged
        (none for an element the model does not hold).  The model keeps a
        set of its own, never the one returned."""
        relied = self._element_risks.get(element)
        if relied is None:
            return set()
        self.mark_failed({element: set(relied)})
        return set(relied)

    def mark_failed(self, edges: Mapping[ElementKey, Set[RiskKey]]) -> None:
        """Flag, for every element of ``edges``, its edges to the risks
        given for it as fail, in one step, taking the sets over.

        Each set is the caller's to give: built for this call, held by
        nothing else afterwards, and naming only risks the element relies
        on (augmentation draws them from its pair index, which is why
        nothing here intersects or copies).  Ownership passes here: an
        element's first failed set *is* the one handed in, and a later one
        is merged into it and dropped.  No set is allocated, and no
        ``O_i`` is kept.  An empty set flags nothing.  The failure map is
        written here and nowhere else; ``O_i`` is derived from it, which is
        exact only because every set names risks its element relies on.
        """
        failure_map = self._failed_risks_by_element
        for element, failed in edges.items():
            if not failed:
                continue
            # Read before creating: ``setdefault(key, set())`` would build a
            # throwaway set for every key that already has one.
            held = failure_map.get(element)
            if held is None:
                failure_map[element] = failed
            else:
                held.update(failed)

    # ------------------------------------------------------------------ #
    # Augmentation's pair index
    # ------------------------------------------------------------------ #
    def pair_index(self, scope: Hashable) -> Dict[Tuple[str, str], PairEntry]:
        """Augmentation's index for ``scope`` (``None`` for a switch model,
        the switch for its triplets in the controller model): each directed
        ``(src, dst)`` EPG pair resolved so far (:meth:`resolve_pair`),
        mapped to its :data:`PairEntry`.

        Read-only for the caller, and shared: every copy of this structure
        reads and fills the same index, and :meth:`add_element` drops it,
        so it never answers for a structure it was not derived from.
        Nothing is built ahead of a pair's first use.
        """
        index = self._pair_indexes.get(scope)
        if index is None:
            index = self._pair_indexes[scope] = {}
        return index

    def resolve_pair(
        self, scope: Hashable, ends: Tuple[str, str], element: Optional[ElementKey]
    ) -> PairEntry:
        """File ``ends`` — both directions — in ``scope``'s pair index as
        observing ``element`` (``None``: no element, e.g. ``src == dst``)
        and return the entry.

        The entry holds the risks the element relies on that a provenance
        field can name — an empty field names no object, so ``""`` is left
        out — or is ``None`` for an element the model does not hold.
        Counted in :attr:`pairs_resolved`, once for the two directions.
        """
        relied = None if element is None else self._element_risks.get(element)
        entry: PairEntry = None
        if relied is not None:
            entry = (element, relied - {""} if "" in relied else relied)
        index = self.pair_index(scope)
        src, dst = ends
        index[ends] = index[dst, src] = entry
        self.pairs_resolved += 1
        return entry

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def elements(self) -> List[ElementKey]:
        return list(self._element_risks)

    def risks(self) -> List[RiskKey]:
        """Every risk at least one element depends on."""
        return list(self._risk_elements)

    def __contains__(self, element: ElementKey) -> bool:
        return element in self._element_risks

    def elements_for_risk(self, risk: RiskKey) -> Set[ElementKey]:
        """``G_i`` — every element that depends on ``risk``."""
        return set(self._risk_elements.get(risk, ()))

    # ------------------------------------------------------------------ #
    # Failure queries
    # ------------------------------------------------------------------ #
    def failure_signature(self) -> Set[ElementKey]:
        """``F`` — the set of observations (elements with at least one failed edge)."""
        return set(self._failed_risks_by_element)

    def failed_risks_for_element(self, element: ElementKey) -> Set[RiskKey]:
        """Risks connected to ``element`` through a failed edge (``getFailedObjects``)."""
        return set(self._failed_risks_by_element.get(element, ()))

    def failed_elements_for_risk(self, risk: RiskKey) -> Set[ElementKey]:
        """``O_i`` — failed elements whose failed edges include ``risk``:
        the dependents in ``G_i`` whose failed set names it."""
        failure_map = self._failed_risks_by_element
        return {
            element
            for element in self._risk_elements.get(risk, ())
            if risk in failure_map.get(element, ())
        }

    # ------------------------------------------------------------------ #
    # Ratios
    # ------------------------------------------------------------------ #
    def hit_ratio(self, risk: RiskKey) -> float:
        """``|O_i| / |G_i|`` — fraction of the risk's dependents that failed."""
        dependents = len(self._risk_elements.get(risk, ()))
        if not dependents:
            return 0.0
        return len(self.failed_elements_for_risk(risk)) / dependents

    def coverage_ratio(self, risk: RiskKey) -> float:
        """``|O_i| / |F|`` — fraction of the failure signature the risk explains."""
        observations = len(self._failed_risks_by_element)
        if not observations:
            return 0.0
        return len(self.failed_elements_for_risk(risk)) / observations

    # ------------------------------------------------------------------ #
    # The maps themselves, and copies
    # ------------------------------------------------------------------ #
    def indexes(self) -> Tuple[Index, Index, Index]:
        """The three maps every query reads, as the model holds them: the
        risks each element relies on, ``G_i`` per risk, and the failure map
        (the failed risks per failed element).

        For a caller that only reads and must not pay a copy per query —
        the localizers, which count ``|O_i|`` over them.  Nothing is copied,
        so nothing returned may be edited.
        """
        return self._element_risks, self._risk_elements, self._failed_risks_by_element

    def copy(self) -> "RiskModel":
        """An independent model over the same structure.

        Costs what the model adds (its failure map), not what the fabric
        does: the structure is shared, so from here on it is read-only in
        both models (see :meth:`add_element`).
        """
        clone = RiskModel(name=self.name)
        self._structure_shared = clone._structure_shared = True
        clone._element_risks = self._element_risks
        clone._risk_elements = self._risk_elements
        clone._pair_indexes = self._pair_indexes
        clone._failed_risks_by_element = {
            el: set(risks) for el, risks in self._failed_risks_by_element.items()
        }
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
            "elements": len(self._element_risks),
            "risks": len(self._risk_elements),
            "edges": sum(map(len, self._element_risks.values())),
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
    Callers get copies of it: the structure shared and read-only (the first
    :meth:`RiskModel.copy` marks it so), each with a failure map of its own.
    """
    held, reused = index.risk_structure(key, build, leaf)
    model = held.copy()
    model.name = name
    model.structure_reused = reused
    return model
