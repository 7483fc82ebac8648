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

Augmentation is per pair, not per rule.  A rule contributes nothing but its
provenance — ``(src, dst, vrf, contract, filter)`` — so the missing rules are
counted per provenance tuple in one pass, the tuples of a pair are folded
into one object set, and each pair's edges are flagged with one
:meth:`RiskModel.mark_element_failed` call: a leaf that lost 1 664 rules is
379 pairs and 2 839 edges, each touched once.  The flip count returned is
still the per-rule one.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Callable, Dict, Hashable, Iterable, Mapping, Sequence

from ..policy.objects import EpgPair
from ..rules import TcamRule
from .model import RiskModel

__all__ = [
    "augment_switch_model",
    "augment_controller_model",
    "augment_controller_model_sharded",
]


_PROVENANCE = attrgetter(
    "src_epg_uid", "dst_epg_uid", "vrf_uid", "contract_uid", "filter_uid"
)


def _augment(
    model: RiskModel,
    missing_rules: Iterable[TcamRule],
    element_of: Callable[[EpgPair], Hashable],
    also: Sequence[str] = (),
) -> int:
    """Flag, for every pair ``missing_rules`` serve, the edges from
    ``element_of(pair)`` to the rules' objects and to ``also``.

    Returns the number of (element, object) edges the rules flip, counted per
    rule.  Pairs and objects the model does not know are skipped: the policy
    may have changed between compilation and collection.
    """
    by_pair: Dict[tuple, list] = {}  # (src, dst) sorted -> [(provenance, rules)]
    for counted in Counter(map(_PROVENANCE, missing_rules)).items():
        src, dst = counted[0][:2]
        ends = (src, dst) if src <= dst else (dst, src)
        by_pair.setdefault(ends, []).append(counted)
    flipped = 0
    for ends, counted_tuples in by_pair.items():
        try:
            pair = EpgPair(*ends)
        except ValueError:  # src == dst: no pair, no element
            continue
        objects = set()
        for provenance, _ in counted_tuples:
            objects.update(provenance)
        objects.discard("")  # an empty provenance field names no object
        objects.update(also)
        failed = model.mark_element_failed(element_of(pair), objects)
        if failed:
            shared = len(failed.intersection(also))
            for provenance, rules in counted_tuples:
                flipped += rules * (len(failed.intersection(provenance)) + shared)
    return flipped


def augment_switch_model(model: RiskModel, missing_rules: Iterable[TcamRule]) -> int:
    """Annotate one switch risk model with that switch's missing rules.

    Returns the number of (pair, object) edges flipped to ``fail``.  Missing
    rules that reference pairs or objects absent from the model (e.g. the
    pair has no endpoint on this switch because the policy changed between
    compilation and collection) are skipped defensively.
    """
    return _augment(model, missing_rules, lambda pair: pair)


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
            lambda pair: (switch_uid, pair),
            also=(switch_uid,) if include_switch_risks else (),
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
