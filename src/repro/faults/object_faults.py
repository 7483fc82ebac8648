"""Injection of full and partial object faults into deployed TCAM state.

These functions operate on the *deployed* rules (the T side): they delete
rules whose provenance references the target object, exactly as the paper's
fault model prescribes ("all/some TCAM rules associated with an object are
missing").  They never touch the desired state, so the L-T equivalence check
afterwards reports the deleted rules as missing.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..exceptions import FaultInjectionError
from ..fabric.fabric import Fabric
from ..rules import TcamRule
from .base import FaultKind, InjectedFault

__all__ = ["rules_for_object", "inject_full_object_fault", "inject_partial_object_fault"]


def rules_for_object(
    fabric: Fabric,
    object_uid: str,
    switches: Optional[Sequence[str]] = None,
) -> Dict[str, List[TcamRule]]:
    """Deployed rules whose provenance references ``object_uid``, per switch."""
    targets = switches if switches is not None else fabric.leaf_uids()
    found: Dict[str, List[TcamRule]] = {}
    for switch_uid in targets:
        switch = fabric.switch(switch_uid)
        matching = [rule for rule in switch.deployed_rules() if rule.references(object_uid)]
        if matching:
            found[switch_uid] = matching
    return found


def _remove(fabric: Fabric, per_switch: Dict[str, List[TcamRule]]) -> Dict[str, List[TcamRule]]:
    """Remove the given rules, each switch's as one TCAM write."""
    removed: Dict[str, List[TcamRule]] = {}
    for switch_uid, rules in per_switch.items():
        keys = [rule.match_key() for rule in rules]
        removed[switch_uid] = fabric.switch(switch_uid).tcam.write(keys, {})[0]
    return removed


def inject_full_object_fault(
    fabric: Fabric,
    object_uid: str,
    switches: Optional[Sequence[str]] = None,
    injected_at: int = 0,
) -> InjectedFault:
    """Remove *every* deployed rule associated with ``object_uid``.

    ``switches`` restricts the blast radius (a switch-local fault); the
    default removes the object's rules fabric-wide, which models a
    controller-level fault such as a bad object pushed to every switch.
    """
    per_switch = rules_for_object(fabric, object_uid, switches)
    if not per_switch:
        raise FaultInjectionError(
            f"object {object_uid!r} has no deployed rules on the selected switches"
        )
    return InjectedFault(
        object_uid=object_uid,
        kind=FaultKind.FULL,
        removed_rules=_remove(fabric, per_switch),
        injected_at=injected_at,
    )


def inject_partial_object_fault(
    fabric: Fabric,
    object_uid: str,
    rng: random.Random,
    switches: Optional[Sequence[str]] = None,
    injected_at: int = 0,
) -> InjectedFault:
    """Remove a random half (rounded) of the rules associated with ``object_uid``.

    At least one rule is removed and, whenever the object has more than one
    deployed rule, at least one rule is kept so the fault is genuinely
    partial (the object's hit ratio stays below 1 — the regime where the
    SCORE baseline fails).
    """
    per_switch = rules_for_object(fabric, object_uid, switches)
    if not per_switch:
        raise FaultInjectionError(
            f"object {object_uid!r} has no deployed rules on the selected switches"
        )
    all_rules = [(switch_uid, rule) for switch_uid, rules in per_switch.items() for rule in rules]
    rng.shuffle(all_rules)
    # Half of n > 1 rules, rounded, is at least 1 and at most n - 1.
    victims = all_rules[: max(1, round(len(all_rules) / 2))]

    chosen: Dict[str, List[TcamRule]] = {}
    for switch_uid, rule in victims:
        chosen.setdefault(switch_uid, []).append(rule)
    return InjectedFault(
        object_uid=object_uid,
        kind=FaultKind.PARTIAL,
        removed_rules=_remove(fabric, chosen),
        injected_at=injected_at,
    )
