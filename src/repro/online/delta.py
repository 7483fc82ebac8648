"""Incremental L-T equivalence checking.

A from-scratch sweep (:meth:`EquivalenceChecker.check_network`) compares
every switch's L and T — correct, but linear in the fabric for every query.
:class:`IncrementalChecker` instead maintains a *live* verdict, and one
per-switch proof serves every caller: the online monitor refreshes the
switches events dirtied, and ``ScoutSystem.check`` refreshes every switch
of a checker it holds, so a batch audit reuses the verdict of each switch
nothing touched since the last one:

* the logical (L) side is the controller's.  Every refresh checks against
  one :meth:`IncrementalChecker.compile` request — the controller's
  :class:`~repro.controller.compiler.CompiledRules`, index and rules of one
  policy, from the one incremental compiler of L, which hands back the
  *same* per-switch :class:`~repro.rules.RuleSequence` for a switch it did
  not re-assemble; the checker compiles nothing and owns no index;
* each switch is proved by one
  :meth:`~repro.verify.checker.EquivalenceChecker.check_switch` call, which
  settles a switch whose logical and deployed match-key sets are equal
  without running an engine at all (identical match/action sets have
  identical semantics) and counts it under the checker's
  ``identity_proofs``;
* a dirty set makes :meth:`refresh` re-check only the switches inside the
  blast radius of what actually happened.

Blast radius: a TCAM or device event dirties exactly its switch.  A policy
change dirties the switches of every EPG pair depending on the changed
object — under the index held since the last refresh (the object may have
been deleted) and under the current one (the change may create new
dependencies), wherever either places the pair; endpoint changes map to
their EPG's pairs, since attachments move rules between switches.  That is
wider than "the switches whose compiled rules changed" on purpose: an edit
can move the change-log evidence an open incident was localized with while
leaving the switch's rules alone, and the re-check is what re-localizes it.
A switch whose compiled sequence is not the object held since the last
refresh is dirty as well, so L is right even for an edit no event announced.
The one full sweep is :meth:`bootstrap`, which establishes the baseline.

Re-checked is not re-proved.  The checker keeps, per switch, the logical
:class:`~repro.rules.RuleSequence` and deployed
:class:`~repro.rules.TcamSnapshot` objects its last verdict
was proved from; a dirty switch whose compile handed back the same L object
and whose TCAM the same T object (:meth:`TcamTable.rule_sequence` hands out
a new one after any write that changed what it holds) gets that verdict
again — immutable inputs, same verdict.  It is still returned as refreshed,
so the monitor re-localizes it, and it counts under the route that proved
it (``digest_short_circuits`` when the identity proof settled it,
``switch_checks`` when an engine ran) as well as in ``verdicts_reused``.

Re-proved is not re-diffed.  Beside L and T the checker keeps the key
difference its last proof was decided on (``L - T``, ``T - L``).  When the
compile hands back the held L and the TCAM's new sequence follows the held
T — the table records its net key change between the two
(:meth:`TcamTable.rule_sequence`) — the proof folds that change into the
held difference, in the size of the change, instead of probing every key of
L (:meth:`~repro.verify.checker.EquivalenceChecker.prove_switch`).  Any
other case takes the full difference: a recompiled L, a sweep (bootstrap,
restore: the memo starts empty), a table whose change outgrew it, or one
another reader took a sequence from in between.  ``stats()`` counts
``folded_deltas`` and ``full_deltas``; the fallback is the second.

A snapshot holds only what a sweep cannot recompute — which switches were
violating and how, dirt, counters — and a restore runs that same sweep: a
stored copy of L or T would be trusted over the network.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..controller.compiler import CompiledRules
from ..controller.controller import Controller
from ..obs import span
from ..policy.graph import PolicyIndex
from ..policy.objects import EpgPair, ObjectType
from ..rules import RuleCarrier, RuleSequence
from ..verify.checker import (
    EquivalenceChecker,
    EquivalenceReport,
    KeyDelta,
    SwitchCheckResult,
)

__all__ = [
    "IncrementalChecker",
    "merge_checker_states",
]

#: The per-run counters a checker snapshot carries (and a restore reapplies).
#: The last three are what this checker's own compile requests cost the
#: controller (:meth:`Controller.compile_stats` deltas).
_STAT_KEYS = (
    "full_checks",
    "switch_checks",
    "digest_short_circuits",
    "pair_recompiles",
    "index_rebuilds",
    "index_patches",
)


def _verdicts(results: Dict[str, SwitchCheckResult]) -> Dict[str, str]:
    """What a snapshot records of ``results``: per *violating* switch, the
    canonical fingerprint of its result alone (a healthy switch is the
    absence of one)."""
    return {
        uid: EquivalenceReport({uid: result}).semantic_fingerprint()
        for uid, result in sorted(results.items())
        if not result.equivalent
    }


class IncrementalChecker:
    """Event-driven per-switch L-T checking against the controller's L."""

    def __init__(
        self,
        controller: Controller,
        checker: Optional[EquivalenceChecker] = None,
        owned: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.controller = controller
        self.checker = checker or EquivalenceChecker()
        #: Ownership predicate for partitioned monitors: when set, this
        #: checker maintains switch-level state (results, dirt)
        #: only for switches the predicate accepts.  ``None`` (the default)
        #: owns the whole fabric.
        self._owned = owned
        #: The controller's compile as of the last refresh: its index knows
        #: the "before" half of a policy blast radius, its sequences are
        #: what the next compile's are compared with, by identity.
        self._compiled: Optional[CompiledRules] = None
        self._results: Dict[str, SwitchCheckResult] = {}
        #: Per switch refreshed since the last sweep: the L and T objects
        #: its held verdict was proved from, whether the identity proof
        #: settled it, and the key delta it was decided on (None under
        #: ``engine="bdd"``).  A sweep (bootstrap, restore) starts it empty.
        self._proved: Dict[
            str, Tuple[RuleSequence, RuleCarrier, bool, Optional[KeyDelta]]
        ] = {}
        # Pending work.
        self._dirty: Set[str] = set()
        #: Changed objects whose blast radius the next refresh resolves.
        self._pending_objects: List[Tuple[str, Optional[ObjectType]]] = []
        # Statistics (the benchmarks and the examples assert on these).
        self.full_checks = 0
        self.switch_checks = 0
        self.digest_short_circuits = 0
        self.pair_recompiles = 0
        self.index_rebuilds = 0
        self.index_patches = 0
        self.verdicts_reused = 0
        #: Proofs whose key delta was folded from the held one, and those
        #: that took it over the keys.
        self.folded_deltas = 0
        self.full_deltas = 0

    # ------------------------------------------------------------------ #
    # The L side
    # ------------------------------------------------------------------ #
    def compile(self) -> CompiledRules:
        """One request for the controller's compiled policy — the index and
        every switch's L side, of one policy — booked to this checker's
        ``index_rebuilds`` / ``index_patches`` / ``pair_recompiles``.

        :meth:`bootstrap` and :meth:`refresh` make it themselves unless
        handed one; a monitor makes one per pass for all its partitions."""
        with self.controller._compile_span("delta.compile") as spent:
            compiled = self.controller._compiled_rules()
        self.index_rebuilds += spent["rebuilds"]
        self.index_patches += spent["patches"]
        self.pair_recompiles += spent["pairs_recompiled"]
        return compiled

    @staticmethod
    def _pairs_for_object(
        index: PolicyIndex, object_uid: str, object_type: Optional[ObjectType]
    ) -> Set[EpgPair]:
        """EPG pairs whose rules or placement can depend on ``object_uid``."""
        pairs = set(index.pairs_for_object(object_uid))
        if object_type is ObjectType.ENDPOINT:
            # Endpoints are not shared risks, but attaching/detaching one
            # moves its EPG's pairs between switches.
            try:
                endpoint = index.endpoint(object_uid)
            except KeyError:
                endpoint = None
            if endpoint is not None:
                pairs.update(index.pairs_for_object(endpoint.epg_uid))
        return pairs

    def _policy_dirt(self, index: PolicyIndex) -> Set[str]:
        """Owned switches in the blast radius of the pending policy changes,
        read under the held index and under ``index`` (pairs and placements
        both: either side may know a dependency the other does not)."""
        indexes = (self._compiled.index, index)
        pairs: Set[EpgPair] = set()
        for object_uid, object_type in self._pending_objects:
            for known in indexes:
                pairs.update(self._pairs_for_object(known, object_uid, object_type))
        return {
            switch_uid
            for pair in pairs
            for known in indexes
            for switch_uid in known.switches_for_pair(pair)
            if self._owns(switch_uid)
        }

    def _rebase(self, compiled: CompiledRules) -> None:
        """Adopt ``compiled`` as the held compile, dirtying what it moves:
        the pending policy blast radius, plus every owned switch whose
        sequence is not the held object."""
        if self._pending_objects:
            self._dirty.update(self._policy_dirt(compiled.index))
            self._pending_objects.clear()
        logical, held = compiled.by_switch, self._compiled.by_switch
        self._dirty.update(
            switch_uid
            for switch_uid in logical.keys() | held.keys()
            if logical.get(switch_uid) is not held.get(switch_uid)
            and self._owns(switch_uid)
        )
        self._compiled = compiled

    # ------------------------------------------------------------------ #
    # Event notifications (called by the monitor)
    # ------------------------------------------------------------------ #
    def note_policy_change(
        self, object_uid: str, object_type: Optional[ObjectType] = None
    ) -> None:
        """A policy object changed: its blast radius, before and after, is
        re-checked by the next refresh."""
        if self._compiled is None:
            return  # not bootstrapped yet: the first sweep sees everything
        self._pending_objects.append((object_uid, object_type))

    def note_switch_change(self, switch_uid: str) -> None:
        """A switch's deployed state (or health) changed: dirty just it."""
        if self._owns(switch_uid):
            self._dirty.add(switch_uid)

    def has_pending_work(self) -> bool:
        """True while a refresh has something to re-check: dirty switches,
        or policy changes whose blast radius is not resolved yet."""
        return bool(self._dirty or self._pending_objects)

    def _owns(self, switch_uid: str) -> bool:
        return self._owned is None or self._owned(switch_uid)

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #
    def bootstrap(self, compiled: Optional[CompiledRules] = None) -> EquivalenceReport:
        """Full sweep establishing the baseline; clears all dirt."""
        with span("delta.bootstrap"):
            compiled = compiled or self.compile()
            report = self._sweep(compiled)
        self._compiled = compiled
        self._pending_objects.clear()
        self.full_checks += 1
        self._results = dict(report.results)
        self._proved.clear()
        self._dirty.clear()
        return report

    def _sweep(self, compiled: CompiledRules) -> EquivalenceReport:
        """Check every owned switch, ``compiled``'s L against the fabric's
        current T, and assign nothing: a restore sweeps before it adopts."""
        logical = {
            switch_uid: rules
            for switch_uid, rules in compiled.by_switch.items()
            if self._owns(switch_uid)
        }
        deployed = {
            switch_uid: rules
            for switch_uid, rules in self.controller.collect_deployed_rules().items()
            if self._owns(switch_uid)
        }
        return self.checker.check_network(logical, deployed)

    def refresh(
        self,
        switch_uids: Optional[Sequence[str]] = None,
        compiled: Optional[CompiledRules] = None,
    ) -> Dict[str, SwitchCheckResult]:
        """Re-check the dirty switches (plus any explicitly named ones).

        Returns the fresh result for every switch that was re-validated.
        Never-bootstrapped checkers bootstrap first and report every switch.

        ``compiled`` is the :meth:`compile` result to check against — a
        monitor hands one request per pass to all its partitions; a
        standalone caller leaves it out and the checker makes that request
        first.  Everything after that point is the same code.

        Every dirty switch is re-checked where it stands, however many a
        burst (a deployment storm, a rack losing power) dirtied at once, by
        one ``check_switch`` call: the identity proof when its key sets
        agree, this checker's engine over the key delta otherwise — unless
        its L and T are the very objects its held verdict was proved from,
        which answer it again.  The key delta is folded from the held one
        when L is the held object and T the TCAM's successor of the held T.
        """
        if self._compiled is None:
            return dict(self.bootstrap(compiled).results)
        if switch_uids:
            self._dirty.update(switch_uids)
        digests_before = self.digest_short_circuits
        checks_before = self.switch_checks
        reused_before = self.verdicts_reused
        with span("delta.refresh", dirty=len(self._dirty)) as refresh_span:
            self._rebase(compiled or self.compile())
            refreshed: Dict[str, SwitchCheckResult] = {}
            switches = self.controller.fabric.switches
            for switch_uid in sorted(self._dirty):
                switch = switches.get(switch_uid)
                logical = self._compiled.by_switch.get(switch_uid)
                if switch is None and logical is None:
                    # Neither an L nor a T side exists (a typo'd or decommissioned
                    # switch): fabricating a clean verdict would mask the mistake,
                    # and a serial check_network would emit nothing for it either.
                    self._results.pop(switch_uid, None)
                    self._proved.pop(switch_uid, None)
                    continue
                if logical is None:
                    logical = RuleSequence()
                deployed: RuleCarrier = RuleSequence()
                if switch is not None:
                    deployed = switch.tcam.rule_sequence()
                held = self._proved.get(switch_uid)
                if held is not None and held[0] is logical and held[1] is deployed:
                    result, by_identity = self._results[switch_uid], held[2]
                    self.verdicts_reused += 1
                else:
                    proofs = self.checker.identity_proofs
                    result, delta = self.checker.prove_switch(
                        switch_uid, logical, deployed, None if held is None else held[3]
                    )
                    by_identity = self.checker.identity_proofs != proofs
                    self._proved[switch_uid] = (logical, deployed, by_identity, delta)
                    if delta is not None:
                        if delta.folded:
                            self.folded_deltas += 1
                        else:
                            self.full_deltas += 1
                if by_identity:
                    self.digest_short_circuits += 1
                else:
                    self.switch_checks += 1
                refreshed[switch_uid] = self._results[switch_uid] = result
            self._dirty.clear()
            refresh_span.count(
                "digest_short_circuits", self.digest_short_circuits - digests_before
            )
            refresh_span.count("switch_checks", self.switch_checks - checks_before)
            refresh_span.count("verdicts_reused", self.verdicts_reused - reused_before)
        return refreshed

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    def report(self) -> EquivalenceReport:
        """The live network-wide verdict assembled from per-switch results,
        in sorted-uid order."""
        results = self._results
        return EquivalenceReport({uid: results[uid] for uid in sorted(results)})

    def results(self) -> Dict[str, SwitchCheckResult]:
        """Every per-switch result this checker currently holds (a copy)."""
        return dict(self._results)

    def stats(self) -> Dict[str, int]:
        return {
            **{key: getattr(self, key) for key in _STAT_KEYS},
            # Not in a snapshot: a restore sweeps, and starts no memo.
            "verdicts_reused": self.verdicts_reused,
            "folded_deltas": self.folded_deltas,
            "full_deltas": self.full_deltas,
            "dirty_switches": len(self._dirty),
            # The persistent checker's atom table (atomic-predicate engine):
            # deltas *patch* it in place, so across refreshes the version
            # only moves when a genuinely new protocol/port value appears.
            "atom_version": self.checker.atoms.version,
            "atom_patches": self.checker.atoms.patches,
        }

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """The checker state as one JSON-ready dict: what a sweep cannot
        recompute.  The last verdict of every violating switch, dirt and
        counters — not L or T, which a restore reads where they live.

        Policy changes still waiting for a refresh are resolved into
        ``dirty_switches`` here, while the index from before them is still
        held (a restored checker could no longer see a deleted object's
        dependents); they stay in ``pending_objects`` too, for placements
        an edit after the snapshot may add.
        """
        if self._compiled is None:
            raise RuntimeError("cannot snapshot a never-bootstrapped checker")
        dirty = set(self._dirty)
        if self._pending_objects:
            dirty |= self._policy_dirt(self.controller.build_index())
        return {
            "verdicts": _verdicts(self._results),
            "dirty_switches": sorted(dirty),
            "pending_objects": [
                [uid, object_type.value if object_type is not None else None]
                for uid, object_type in self._pending_objects
            ],
            "stats": {key: getattr(self, key) for key in _STAT_KEYS},
        }

    def parse_state(
        self, state: Dict, with_stats: bool = True
    ) -> Callable[[CompiledRules], Callable[[], None]]:
        """Parse a :meth:`snapshot_state` payload and return the sweep that
        restores it: ``sweep(compiled)`` checks the owned switches against
        ``compiled`` and returns the step that adopts both.  A monitor
        parses every partition's slice, then sweeps them all, before any
        checker changes.  A malformed payload raises a ValueError here; a
        fabric that cannot be checked raises from the sweep what the check
        raised.  Neither touches anything; the adopt step only assigns.

        The sweep is the bootstrap's, applied to no incident: a switch whose
        fresh verdict is not the recorded one — L or T moved while no
        checker was watching — is dirty beside the payload's own dirt, for
        the first refresh.  ``full_checks`` reads what ``with_stats``
        restores plus this sweep.

        Version-1 and -2 payloads carried whole ``results`` (the verdicts
        are derived from them) and both key sets of every switch (ignored);
        version 1 also a private compile of L (ignored) and ``dirty_pairs``
        (the switches those pairs are placed on now).
        """
        if "verdicts" in state:
            verdicts = {
                uid: verdict
                for uid, verdict in state["verdicts"].items()
                if self._owns(uid)
            }
            if not all(type(verdict) is str for verdict in verdicts.values()):
                raise ValueError(f"verdicts must be strings, got {verdicts!r}")
        else:
            verdicts = _verdicts(
                {
                    uid: SwitchCheckResult.from_dict(data)
                    for uid, data in state.get("results", {}).items()
                    if self._owns(uid)
                }
            )
        dirty = {uid for uid in state.get("dirty_switches", ()) if self._owns(uid)}
        dirty_pairs = [EpgPair(*pair) for pair in state.get("dirty_pairs", ())]
        pending_objects = [
            (uid, ObjectType(type_value) if type_value is not None else None)
            for uid, type_value in state.get("pending_objects", ())
        ]
        stats = state.get("stats", {})
        counters = {key: stats.get(key, 0) for key in _STAT_KEYS} if with_stats else {}
        if not all(type(value) is int for value in counters.values()):
            raise ValueError(f"stats must be integers, got {counters!r}")

        def sweep(compiled: CompiledRules) -> Callable[[], None]:
            results = self._sweep(compiled).results
            fresh = _verdicts(results)
            swept_dirty = dirty | {
                switch_uid
                for switch_uid in fresh.keys() | verdicts.keys()
                if fresh.get(switch_uid) != verdicts.get(switch_uid)
            }
            for pair in dirty_pairs:
                swept_dirty.update(
                    filter(self._owns, compiled.index.switches_for_pair(pair))
                )

            def adopt() -> None:
                for key, value in counters.items():
                    setattr(self, key, value)
                self.full_checks += 1
                self._results = results
                self._proved.clear()
                self._dirty, self._pending_objects = swept_dirty, pending_objects
                self._compiled = compiled

            return adopt

        return sweep


# ---------------------------------------------------------------------- #
# Snapshot plumbing
# ---------------------------------------------------------------------- #
def merge_checker_states(states: Sequence[Dict]) -> Dict:
    """Merge per-partition :meth:`IncrementalChecker.snapshot_state` payloads.

    Verdicts are disjoint by ownership and merge trivially.  Dirty sets
    union; pending policy changes were broadcast to every partition and
    dedupe in first-seen order; counters sum, so aggregated monitor stats
    survive a restore.
    """
    if not states:
        raise ValueError("cannot merge zero checker states")
    merged: Dict = {
        "verdicts": {},
        "dirty_switches": set(),
        "pending_objects": [],
        "stats": {key: 0 for key in _STAT_KEYS},
    }
    seen_pending = set()
    for state in states:
        merged["verdicts"].update(state.get("verdicts", {}))
        merged["dirty_switches"].update(state.get("dirty_switches", ()))
        for uid, type_value in state.get("pending_objects", ()):
            if (uid, type_value) not in seen_pending:
                seen_pending.add((uid, type_value))
                merged["pending_objects"].append([uid, type_value])
        for key in _STAT_KEYS:
            merged["stats"][key] += state.get("stats", {}).get(key, 0)
    merged["verdicts"] = dict(sorted(merged["verdicts"].items()))
    merged["dirty_switches"] = sorted(merged["dirty_switches"])
    return merged
