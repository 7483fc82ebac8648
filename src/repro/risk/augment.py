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
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from ..rules import TcamRule
from .model import RiskModel

__all__ = [
    "augment_switch_model",
    "augment_controller_model",
    "augment_controller_model_sharded",
]


def _failed_objects_of_rule(rule: TcamRule) -> list[str]:
    """The policy-object uids implicated by one missing rule."""
    return rule.objects()


def augment_switch_model(model: RiskModel, missing_rules: Iterable[TcamRule]) -> int:
    """Annotate one switch risk model with that switch's missing rules.

    Returns the number of (pair, object) edges flipped to ``fail``.  Missing
    rules that reference pairs or objects absent from the model (e.g. the
    pair has no endpoint on this switch because the policy changed between
    compilation and collection) are skipped defensively.
    """
    flipped = 0
    for rule in missing_rules:
        try:
            pair = rule.epg_pair()
        except (KeyError, ValueError):
            continue
        if pair not in model:
            continue
        pair_risks = model.risks_for_element(pair)
        for uid in _failed_objects_of_rule(rule):
            if uid in pair_risks:
                model.mark_edge_failed(pair, uid)
                flipped += 1
    return flipped


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
        for rule in missing_rules:
            try:
                pair = rule.epg_pair()
            except (KeyError, ValueError):
                continue
            element = (switch_uid, pair)
            if element not in model:
                continue
            element_risks = model.risks_for_element(element)
            failed = _failed_objects_of_rule(rule)
            if include_switch_risks and switch_uid in element_risks:
                failed = failed + [switch_uid]
            for uid in failed:
                if uid in element_risks:
                    model.mark_edge_failed(element, uid)
                    flipped += 1
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
