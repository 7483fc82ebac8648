"""Fault-injection campaigns for the evaluation.

The :class:`FaultInjector` drives the random fault campaigns of §VI: it picks
policy objects that actually have deployed rules, injects full or partial
object faults (with equal weight by default, as in the paper), keeps the
ground truth, and records a change-log entry for every faulted object —
modelling the fact that the rule misses are the result of a recent
management action gone wrong, which is the signal SCOUT's second stage and
the event correlation engine both rely on.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set

from ..controller.controller import Controller
from ..exceptions import FaultInjectionError
from ..policy.objects import ObjectType
from ..protocol import Operation
from .base import FaultKind, InjectedFault
from .object_faults import (
    inject_full_object_fault,
    inject_partial_object_fault,
    rules_for_object,
)

__all__ = ["FaultInjector"]

#: Object types eligible for random fault selection.  Endpoints are
#: excluded (they do not appear in rule provenance) and switches are handled
#: by the physical scenarios instead.
DEFAULT_FAULT_TYPES = (
    ObjectType.VRF,
    ObjectType.EPG,
    ObjectType.CONTRACT,
    ObjectType.FILTER,
)


class FaultInjector:
    """Inject object faults into a deployed controller/fabric pair."""

    def __init__(
        self,
        controller: Controller,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.controller = controller
        self.fabric = controller.fabric
        self.rng = rng or random.Random(0)
        self.injected: List[InjectedFault] = []

    # ------------------------------------------------------------------ #
    # Selection helpers
    # ------------------------------------------------------------------ #
    def faultable_objects(self, switches: Optional[Sequence[str]] = None) -> List[str]:
        """Objects of the :data:`DEFAULT_FAULT_TYPES` that have at least one
        deployed rule."""
        deployed_objects: Set[str] = set()
        targets = switches if switches is not None else self.fabric.leaf_uids()
        for switch_uid in targets:
            for rule in self.fabric.switch(switch_uid).deployed_rules():
                deployed_objects.update(
                    (
                        rule.vrf_uid,
                        rule.src_epg_uid,
                        rule.dst_epg_uid,
                        rule.contract_uid,
                        rule.filter_uid,
                    )
                )
        deployed_objects.discard("")
        wanted = {object_type.value for object_type in DEFAULT_FAULT_TYPES}
        selected = [
            uid
            for uid in deployed_objects
            if uid in self.controller.policy
            and self.controller.policy.get(uid).object_type.value in wanted
        ]
        return sorted(selected)

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #
    def inject_object_fault(
        self,
        object_uid: str,
        kind: FaultKind = FaultKind.FULL,
        switches: Optional[Sequence[str]] = None,
        rng: Optional[random.Random] = None,
    ) -> InjectedFault:
        """Inject one object fault and record it (ground truth + change log).

        ``rng`` overrides the injector's own RNG for this injection (partial
        faults draw their victim subset from it), so one call can be made
        reproducible without resetting the injector's state.
        """
        rng = rng or self.rng
        self.controller.clock.tick()
        injected_at = self.controller.clock.peek()
        if kind is FaultKind.FULL:
            fault = inject_full_object_fault(
                self.fabric, object_uid, switches=switches, injected_at=injected_at
            )
        else:
            fault = inject_partial_object_fault(
                self.fabric,
                object_uid,
                rng=rng,
                switches=switches,
                injected_at=injected_at,
            )
        if object_uid in self.controller.policy:
            obj = self.controller.policy.get(object_uid)
            self.controller.record_change(
                obj,
                Operation.MODIFY,
                detail=f"configuration update ({kind.value} deployment failure followed)",
                timestamp=injected_at,
            )
        self.injected.append(fault)
        return fault

    def inject_random_faults(
        self,
        count: int,
        kinds: Sequence[FaultKind] = (FaultKind.FULL, FaultKind.PARTIAL),
        switches: Optional[Sequence[str]] = None,
        strict: bool = True,
        seed: Optional[int] = None,
    ) -> List[InjectedFault]:
        """Inject ``count`` simultaneous faults on distinct random objects.

        Full and partial faults are drawn with equal weight (matching §VI-A);
        objects are drawn without replacement from those with deployed rules
        on the selected switches.  Earlier faults in the batch can remove
        every rule of a later candidate (faulting a VRF empties its whole
        scope); with ``strict=True`` falling short of ``count`` raises, with
        ``strict=False`` the shorter batch is returned — the injected set is
        still the exact ground truth.

        Every random draw of the batch — the shuffle, the full/partial coin
        and any partial fault's victim subset — comes from one explicit
        source: a fresh ``random.Random(seed)`` when ``seed`` is given, else
        the injector's own RNG.  Campaign cells pass ``seed`` so a batch is
        reproducible regardless of how many injections the shared injector
        RNG served before.
        """
        draw = random.Random(seed) if seed is not None else self.rng
        candidates = self.faultable_objects(switches=switches)
        if len(candidates) < count:
            raise FaultInjectionError(
                f"cannot inject {count} faults: only {len(candidates)} faultable objects"
            )
        # Draw without replacement, but re-draw victims whose rules were all
        # removed by an earlier fault in the same batch (e.g. faulting a VRF
        # first leaves nothing to remove for an EPG inside it).
        pool = list(candidates)
        draw.shuffle(pool)
        faults: List[InjectedFault] = []
        while pool and len(faults) < count:
            uid = pool.pop()
            per_switch = rules_for_object(self.fabric, uid, switches)
            total = sum(len(rules) for rules in per_switch.values())
            if total == 0:
                continue
            kind = draw.choice(list(kinds))
            # A partial fault needs more than one deployed rule to be partial;
            # fall back to a full fault for single-rule objects.
            if kind is FaultKind.PARTIAL and total <= 1:
                kind = FaultKind.FULL
            faults.append(
                self.inject_object_fault(uid, kind=kind, switches=switches, rng=draw)
            )
        if strict and len(faults) < count:
            raise FaultInjectionError(
                f"could only inject {len(faults)} of {count} faults: earlier faults "
                f"removed every rule of the remaining candidates"
            )
        return faults

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def ground_truth(self) -> Set[str]:
        """Uids of every object faulted so far (``G`` in the accuracy metrics)."""
        return {fault.object_uid for fault in self.injected}

    def reset(self) -> None:
        """Forget the injection history (the fabric state is left as-is)."""
        self.injected.clear()
