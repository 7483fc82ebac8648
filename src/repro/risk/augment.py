"""Risk-model augmentation from missing rules (§III-C).

The L-T equivalence checker produces, per switch, the set of rules that
should have been in the TCAM but are not.  Augmentation turns those missing
rules into annotations on the risk models:

* the EPG pair served by a missing rule becomes an *observation* (a failed
  element);
* the edges between that pair and the policy objects referenced by the
  missing rule (its VRF, the two EPGs, the contract and the filter) are
  marked ``fail`` — "we treat all objects in the observed violations as a
  potential culprit".

Edges to objects the pair relies on but that do not appear in any missing
rule stay ``success``, which is precisely the information the localization
algorithms exploit (Figure 4(a): only the Web-App edges fail when rule #1 is
missing at S2).

Augmentation works per provenance tuple, not per rule.  A rule contributes
nothing but its provenance — ``(src, dst, vrf, contract, filter)`` — so the
missing rules are counted per provenance tuple in one pass, and each tuple's
directed ``(src, dst)`` is looked up in the model's pair index
(:meth:`RiskModel.pair_index`): the element it observes and the risks that
element relies on, resolved once per structure and read by every later
augmentation over it (copies included).  A tuple fails the relied-on
objects it names, and no Python call is made per rule or per pair.

What is allocated where: one set per failed element, no set per tuple.
An element's first tuple builds its set, ``relied ∩ provenance`` (a new
set drawn from the pair index's ``relied``, which is never handed on);
each later tuple adds its fields to that set in place when they are five
distinct objects the element relies on, and through a one-off
intersection otherwise (a field the element does not rely on, an empty
field, a repeated one).  One :meth:`RiskModel.mark_failed` call then
hands the sets over: from there on each is the model's, held as the
element's failed set, and this module keeps no reference to it.  The
flip count returned is still the per-rule one: ``Σ n·|relied ∩
provenance|`` over the tuples, ``n`` rules apiece (plus the switch, per
rule, in the controller model).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Set

from ..policy.objects import EpgPair
from ..rules import PROVENANCE, TcamRule
from .model import RiskModel

__all__ = [
    "augment_switch_model",
    "augment_controller_model",
    "augment_controller_model_sharded",
]


#: A pair index's default: the directed pair was never resolved.
_UNSEEN = object()


def _augment(
    model: RiskModel,
    missing_rules: Iterable[TcamRule],
    scope: Optional[str],
    element_of: Callable[[EpgPair], Hashable],
    also: Optional[str] = None,
) -> int:
    """Flag, for every pair ``missing_rules`` serve, the edges from
    ``element_of(pair)`` to the rules' objects and to ``also``.

    ``scope`` names the pair index ``element_of`` resolves through.  Returns
    the number of (element, object) edges the rules flip, counted per rule.
    Pairs and objects the model does not know are skipped: the policy may
    have changed between compilation and collection.
    """
    index = model.pair_index(scope)
    seen = index.get
    failed: Dict[Hashable, Set[str]] = {}
    held_for = failed.get
    flipped = 0
    for provenance, rules in Counter(map(PROVENANCE, missing_rules)).items():
        src, dst, vrf, contract, filter_uid = provenance
        ends = (src, dst)
        entry = seen(ends, _UNSEEN)
        if entry is _UNSEEN:
            # src == dst: no pair, no element.
            element = None if src == dst else element_of(EpgPair(src, dst))
            entry = model.resolve_pair(scope, ends, element)
        if entry is None:
            continue
        element, relied = entry
        implicated = also is not None and also in relied
        held = held_for(element)
        if held is None:
            # The element's first tuple starts the one set it will own.
            held = failed[element] = relied.intersection(provenance)
            hits = len(held)
            if implicated:
                held.add(also)
        elif (
            relied.issuperset(provenance)
            and vrf not in ends
            and contract not in ends
            and filter_uid not in ends
            and vrf != contract != filter_uid != vrf
        ):
            # Five distinct objects, every one relied on: all of them hit.
            held.update(provenance)
            hits = 5
        else:
            # A field names no object the element relies on, or repeats one.
            named = relied.intersection(provenance)
            hits = len(named)
            held |= named
        flipped += rules * (hits + implicated)
    model.mark_failed(failed)
    return flipped


def augment_switch_model(model: RiskModel, missing_rules: Iterable[TcamRule]) -> int:
    """Annotate one switch risk model with that switch's missing rules.

    Returns the number of (pair, object) edges flipped to ``fail``.  Missing
    rules that reference pairs or objects absent from the model (e.g. the
    pair has no endpoint on this switch because the policy changed between
    compilation and collection) are skipped defensively.
    """
    return _augment(model, missing_rules, None, lambda pair: pair)


def augment_controller_model(
    model: RiskModel,
    missing_by_switch: Mapping[str, Sequence[TcamRule]],
    include_switch_risks: bool = True,
) -> int:
    """Annotate the controller risk model with every switch's missing rules.

    The observation key is the ``(switch, pair)`` triplet, so a rule missing
    only at S2 fails only the S2 triplet of that pair while the S1/S3
    triplets stay green — exactly the situation of Figure 4(b).
    """
    flipped = 0
    for switch_uid, missing_rules in missing_by_switch.items():
        flipped += _augment(
            model,
            missing_rules,
            switch_uid,
            lambda pair: (switch_uid, pair),
            also=switch_uid if include_switch_risks else None,
        )
    return flipped


def augment_controller_model_sharded(
    model: RiskModel,
    missing_by_switch: Mapping[str, Sequence[TcamRule]],
    plan,
    include_switch_risks: bool = True,
) -> Dict[int, int]:
    """Apply controller-model augmentation one shard batch at a time.

    ``plan`` is a :class:`~repro.parallel.shards.ShardPlan`; each shard's
    per-switch missing rules are merged into the model as one batch (dirty
    switches the plan has never seen form a trailing batch, mirroring
    ``ShardPlan.group``).  Marking an edge failed is a set insert, so the
    batched passes commute: the augmented model — and therefore everything
    SCOUT derives from the merged observations — is identical to what one
    global :func:`augment_controller_model` pass produces.

    Returns the number of flipped edges per shard batch.
    """
    flips: Dict[int, int] = {}
    for batch_no, shard_uids in enumerate(plan.group(missing_by_switch)):
        subset = {
            uid: missing_by_switch[uid]
            for uid in shard_uids
            if uid in missing_by_switch
        }
        flips[batch_no] = augment_controller_model(
            model, subset, include_switch_risks=include_switch_risks
        )
    return flips
