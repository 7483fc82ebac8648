"""Incremental L-T equivalence checking.

``ScoutSystem.check`` recompiles every logical rule, snapshots every TCAM
and compares the two network-wide — correct, but linear in the fabric for
every query.  :class:`IncrementalChecker` instead maintains a *live* verdict
that events patch in place:

* the logical (L) side is cached at **pair granularity**: one compiled rule
  map per EPG pair plus per-switch refcounted match-key maps, so a policy
  change only recompiles the pairs that depend on the changed object and
  patches their contribution in and out of the affected switches;
* each switch carries a :class:`SwitchDigest` — the match-key fingerprints
  of its logical and deployed rule sets, read off the dicts that already
  hold them — and the checker's identity proof settles a switch whose two
  sets are equal without running an engine at all (identical match/action
  sets have identical semantics; the rule itself lives in
  :meth:`~repro.verify.checker.EquivalenceChecker.identity_proof`);
* a dirty set fed by event notifications makes :meth:`refresh` re-check
  only the switches inside the blast radius of what actually happened.

Blast radius: a TCAM or device event dirties exactly its switch.  A policy
change dirties the EPG pairs depending on the changed object — under the
index *before* the change (the object may have been deleted) and under the
index rebuilt *after* it (the change may create new dependencies) — and,
through them, the switches those pairs are placed on.  Endpoint changes map
to their EPG's pairs, since attachments move rules between switches.

Structure-preserving modifies (filter entries, VRF scopes) take a fast path:
:meth:`~repro.policy.graph.PolicyIndex.refresh_object` patches the index in
place and no rebuild happens at all.  The one full sweep left is
:meth:`bootstrap`, which establishes the baseline every later delta patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..controller.compiler import compile_pair_rules
from ..controller.controller import Controller
from ..obs import span
from ..parallel.executor import SMALL_FABRIC_SWITCHES
from ..parallel.pool import WarmWorkerPool
from ..policy.graph import PolicyIndex
from ..policy.objects import EpgPair, ObjectType
from ..protocol import Operation
from ..rules import MatchKey, RuleSequence, TcamRule
from ..verify.checker import EquivalenceChecker, EquivalenceReport, SwitchCheckResult

__all__ = [
    "SwitchDigest",
    "IncrementalChecker",
    "merge_checker_states",
]

#: The per-run counters a checker snapshot carries (and a restore reapplies).
_STAT_KEYS = (
    "full_checks",
    "switch_checks",
    "digest_short_circuits",
    "pair_recompiles",
    "index_rebuilds",
    "index_patches",
)

#: Object types whose modify (same uid) cannot change the pair/placement
#: structure of the index — candidates for the in-place index patch.
_STRUCTURE_PRESERVING = (ObjectType.FILTER, ObjectType.VRF)


@dataclass(frozen=True)
class SwitchDigest:
    """Match-key fingerprints of one switch's logical and deployed rule sets
    as of its last check (what a snapshot records; the comparison itself is
    :meth:`~repro.verify.checker.EquivalenceChecker.identity_proof`)."""

    logical: FrozenSet[MatchKey]
    deployed: FrozenSet[MatchKey]


class IncrementalChecker:
    """Event-driven per-switch L-T checking with pair-level deltas."""

    def __init__(
        self,
        controller: Controller,
        checker: Optional[EquivalenceChecker] = None,
        owned: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.controller = controller
        self.checker = checker or EquivalenceChecker()
        #: Ownership predicate for partitioned monitors: when set, this
        #: checker maintains switch-level state (rules, refs, digests,
        #: results, dirt) only for switches the predicate accepts, and skips
        #: compiling pairs placed entirely on foreign switches.  ``None``
        #: (the default) owns the whole fabric.
        self._owned = owned
        #: Lazily created warm pool for large batched refreshes; kept across
        #: refreshes so a churn storm's repeat offenders hit warm workers.
        self.pool: Optional[WarmWorkerPool] = None
        self._index: Optional[PolicyIndex] = None
        self._index_dirty = False
        self._results: Dict[str, SwitchCheckResult] = {}
        self._digests: Dict[str, SwitchDigest] = {}
        # The cached L side, patched at pair granularity.
        self._pair_rules: Dict[EpgPair, Dict[MatchKey, TcamRule]] = {}
        self._pair_placement: Dict[EpgPair, Tuple[str, ...]] = {}
        self._switch_refs: Dict[str, Dict[MatchKey, int]] = {}
        self._switch_rules: Dict[str, Dict[MatchKey, TcamRule]] = {}
        # Pending work.
        self._dirty_pairs: Set[EpgPair] = set()
        self._dirty: Set[str] = set()
        #: Object blast radii still to be resolved against the rebuilt index.
        self._pending_objects: List[Tuple[str, Optional[ObjectType]]] = []
        # Statistics (the benchmarks and the examples assert on these).
        self.full_checks = 0
        self.switch_checks = 0
        self.digest_short_circuits = 0
        self.pair_recompiles = 0
        self.index_rebuilds = 0
        self.index_patches = 0

    # ------------------------------------------------------------------ #
    # Index management
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> PolicyIndex:
        """The current policy index (rebuilt lazily after policy changes)."""
        if self._index is None:
            self.bootstrap()
        elif self._index_dirty:
            self._rebuild_index()
        assert self._index is not None
        return self._index

    def _rebuild_index(self) -> None:
        self._index = PolicyIndex(self.controller.policy)
        self._index_dirty = False
        self.index_rebuilds += 1
        for object_uid, object_type in self._pending_objects:
            self._dirty_pairs.update(
                self._pairs_for_object(self._index, object_uid, object_type)
            )
        self._pending_objects.clear()

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

    # ------------------------------------------------------------------ #
    # Event notifications (called by the monitor)
    # ------------------------------------------------------------------ #
    def note_policy_change(
        self,
        object_uid: str,
        object_type: Optional[ObjectType] = None,
        operation: Optional[Operation] = None,
    ) -> None:
        """A policy object changed: dirty its blast radius, old and new.

        Modifies of structure-preserving types (filters, VRFs) patch the
        index in place; everything else schedules a lazy index rebuild.
        """
        if self._index is None:
            return  # not bootstrapped yet: the first sweep sees everything
        # The held index predates every pending change, so its view of the
        # object's dependents is the correct "old" blast radius.
        self._dirty_pairs.update(
            self._pairs_for_object(self._index, object_uid, object_type)
        )
        if (
            not self._index_dirty
            and operation is Operation.MODIFY
            and object_type in _STRUCTURE_PRESERVING
            and self._index.refresh_object(object_uid, object_type)
        ):
            self.index_patches += 1
            return
        self._pending_objects.append((object_uid, object_type))
        self._index_dirty = True

    def note_switch_change(self, switch_uid: str) -> None:
        """A switch's deployed state (or health) changed: dirty just it."""
        if self._owns(switch_uid):
            self._dirty.add(switch_uid)

    def dirty_switches(self) -> Set[str]:
        return set(self._dirty)

    # ------------------------------------------------------------------ #
    # Pair-level logical-rule cache
    # ------------------------------------------------------------------ #
    def _owns(self, switch_uid: str) -> bool:
        return self._owned is None or self._owned(switch_uid)

    def _apply_pair(self, pair: EpgPair) -> None:
        """Re-derive one pair's rules/placement and patch the switch maps."""
        assert self._index is not None
        old_rules = self._pair_rules.get(pair, {})
        old_placement = self._pair_placement.get(pair, ())
        for switch_uid in old_placement:
            if not self._owns(switch_uid):
                continue
            refs = self._switch_refs.get(switch_uid, {})
            rules = self._switch_rules.get(switch_uid, {})
            for key in old_rules:
                remaining = refs.get(key, 0) - 1
                if remaining <= 0:
                    refs.pop(key, None)
                    rules.pop(key, None)
                else:
                    refs[key] = remaining
            self._dirty.add(switch_uid)

        new_rules: Dict[MatchKey, TcamRule] = {}
        if self._index.contracts_for_pair(pair):
            # A partitioned checker only compiles pairs that touch at least
            # one owned switch; the owning partitions cover the rest.
            if self._owned is None or any(
                self._owns(uid) for uid in self._index.switches_for_pair(pair)
            ):
                self.pair_recompiles += 1
                new_rules = {
                    rule.match_key(): rule
                    for rule in compile_pair_rules(self._index, pair)
                }
        new_placement = tuple(self._index.switches_for_pair(pair)) if new_rules else ()
        for switch_uid in new_placement:
            if not self._owns(switch_uid):
                continue
            refs = self._switch_refs.setdefault(switch_uid, {})
            rules = self._switch_rules.setdefault(switch_uid, {})
            for key, rule in new_rules.items():
                refs[key] = refs.get(key, 0) + 1
                rules.setdefault(key, rule)
            self._dirty.add(switch_uid)

        if new_rules:
            self._pair_rules[pair] = new_rules
            self._pair_placement[pair] = new_placement
        else:
            self._pair_rules.pop(pair, None)
            self._pair_placement.pop(pair, None)

    def logical_rules_for(self, switch_uid: str) -> List[TcamRule]:
        """The cached logical rule set of one switch (the live L side)."""
        return list(self._switch_rules.get(switch_uid, {}).values())

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #
    def bootstrap(self) -> EquivalenceReport:
        """Full sweep establishing the baseline; clears all dirt."""
        with span("delta.bootstrap"):
            return self._bootstrap()

    def _bootstrap(self) -> EquivalenceReport:
        # Private, never ``controller.build_index()``: ``note_policy_change``
        # patches this object in place, and the controller's index is shared.
        self._index = PolicyIndex(self.controller.policy)
        self._index_dirty = False
        self._pending_objects.clear()
        self._dirty_pairs.clear()
        self._pair_rules = {}
        self._pair_placement = {}
        self._switch_refs = {}
        self._switch_rules = {}
        for pair in self._index.pairs:
            if self._owned is not None and not any(
                self._owns(uid) for uid in self._index.switches_for_pair(pair)
            ):
                continue
            rules = {
                rule.match_key(): rule for rule in compile_pair_rules(self._index, pair)
            }
            if not rules:
                continue
            placement = tuple(self._index.switches_for_pair(pair))
            self._pair_rules[pair] = rules
            self._pair_placement[pair] = placement
            for switch_uid in placement:
                if not self._owns(switch_uid):
                    continue
                refs = self._switch_refs.setdefault(switch_uid, {})
                bucket = self._switch_rules.setdefault(switch_uid, {})
                for key, rule in rules.items():
                    refs[key] = refs.get(key, 0) + 1
                    bucket.setdefault(key, rule)

        logical = {
            switch_uid: RuleSequence.keyed(rules)
            for switch_uid, rules in self._switch_rules.items()
        }
        deployed = {
            switch_uid: rules
            for switch_uid, rules in self.controller.collect_deployed_rules().items()
            if self._owns(switch_uid)
        }
        report = self.checker.check_network(logical, deployed)
        self.full_checks += 1
        self._results = dict(report.results)
        empty = RuleSequence()
        self._digests = {
            switch_uid: SwitchDigest(
                logical=logical.get(switch_uid, empty).key_set(),
                deployed=deployed.get(switch_uid, empty).key_set(),
            )
            for switch_uid in set(logical) | set(deployed)
        }
        self._dirty.clear()
        return report

    def refresh(
        self,
        switch_uids: Optional[Sequence[str]] = None,
        max_workers: Optional[int] = None,
    ) -> Dict[str, SwitchCheckResult]:
        """Re-check the dirty switches (plus any explicitly named ones).

        Returns the fresh result for every switch that was re-validated.
        Never-bootstrapped checkers bootstrap first and report every switch.

        Digest short-circuits always happen inline; only switches whose
        fingerprints disagree reach an engine, and :meth:`_check_pending`
        decides where that runs.  A multi-event burst (a deployment storm,
        a rack losing power) can dirty a large slice of the fabric at once;
        ``max_workers`` lets such a batch use this checker's warm pool.
        Results are identical whichever route answers.
        """
        if self._index is None:
            report = self.bootstrap()
            return dict(report.results)
        if switch_uids:
            self._dirty.update(switch_uids)
        digests_before = self.digest_short_circuits
        checks_before = self.switch_checks
        with span("delta.refresh", dirty=len(self._dirty)) as refresh_span:
            if self._index_dirty:
                self._rebuild_index()
            with span("delta.recompile_pairs", pairs=len(self._dirty_pairs)):
                for pair in sorted(self._dirty_pairs):
                    self._apply_pair(pair)
            self._dirty_pairs.clear()
            refreshed: Dict[str, SwitchCheckResult] = {}
            pending: List[Tuple[str, RuleSequence, RuleSequence]] = []
            switches = self.controller.fabric.switches
            for switch_uid in sorted(self._dirty):
                switch = switches.get(switch_uid)
                logical_map = self._switch_rules.get(switch_uid)
                if switch is None and logical_map is None:
                    # Neither an L nor a T side exists (a typo'd or decommissioned
                    # switch): fabricating a clean verdict would mask the mistake,
                    # and a serial check_network would emit nothing for it either.
                    self._results.pop(switch_uid, None)
                    self._digests.pop(switch_uid, None)
                    continue
                logical = RuleSequence.keyed(logical_map or {})
                deployed = RuleSequence()
                if switch is not None:
                    deployed = switch.tcam.rule_sequence()
                self._digests[switch_uid] = SwitchDigest(
                    logical=logical.key_set(), deployed=deployed.key_set()
                )
                result = self.checker.identity_proof(
                    switch_uid, logical, deployed, engine="digest"
                )
                if result is not None:
                    self.digest_short_circuits += 1
                    refreshed[switch_uid] = self._results[switch_uid] = result
                else:
                    pending.append((switch_uid, logical, deployed))
            if pending:
                refreshed.update(self._check_pending(pending, max_workers))
            self._dirty.clear()
            refresh_span.count(
                "digest_short_circuits", self.digest_short_circuits - digests_before
            )
            refresh_span.count("switch_checks", self.switch_checks - checks_before)
        return refreshed

    def _check_pending(
        self, pending: Sequence[tuple], max_workers: Optional[int]
    ) -> Dict[str, SwitchCheckResult]:
        """Run the engine over a refresh's digest-failing switches.

        The one place that decides *where*: without a worker budget, this
        checker's engine, switch by switch; with one, ``check_many`` — which
        plans the shards itself (rule-count-weighted LPT, the planner the
        full-fabric sweep uses) — inline below ``SMALL_FABRIC_SWITCHES``,
        and on this checker's persistent
        :class:`~repro.parallel.pool.WarmWorkerPool` at or above it, so
        repeat offenders (a flapping switch re-dirtied every few events)
        are answered from warm worker caches.
        """
        if max_workers is None or max_workers == 1:
            results = {
                switch_uid: self.checker.check_switch(switch_uid, logical, deployed)
                for switch_uid, logical, deployed in pending
            }
        else:
            executor = None
            if len(pending) >= SMALL_FABRIC_SWITCHES:
                if self.pool is None or self.pool.closed:
                    self.pool = WarmWorkerPool(max_workers=max_workers)
                executor = self.pool
            results = self.checker.check_many(
                pending, executor=executor, max_workers=max_workers
            ).results
        self.switch_checks += len(results)
        self._results.update(results)
        return dict(results)

    def close(self) -> None:
        """Release the batch worker pool (and its warm caches), if any."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    def report(self) -> EquivalenceReport:
        """The live network-wide verdict assembled from per-switch results."""
        report = EquivalenceReport()
        for result in self._results.values():
            report.update(result)
        return report

    def result_for(self, switch_uid: str) -> Optional[SwitchCheckResult]:
        return self._results.get(switch_uid)

    def results(self) -> Dict[str, SwitchCheckResult]:
        """Every per-switch result this checker currently holds (a copy)."""
        return dict(self._results)

    def digest_for(self, switch_uid: str) -> Optional[SwitchDigest]:
        return self._digests.get(switch_uid)

    def missing_rules_for(self, switch_uid: str) -> List[TcamRule]:
        result = self._results.get(switch_uid)
        return list(result.missing_rules) if result is not None else []

    def stats(self) -> Dict[str, int]:
        return {
            **{key: getattr(self, key) for key in _STAT_KEYS},
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
        """The full checker state as one JSON-ready dict.

        Everything is serialized — results, digests, the pair-granular L
        cache, the per-switch rule/refcount maps, and the *dirt* (dirty
        switches/pairs, unresolved object blast radii, index staleness) —
        so :meth:`restore_state` is pure deserialization: no recompile, no
        sweep, and byte-identical behavior from the first post-restore
        refresh onward.
        """
        if self._index is None:
            raise RuntimeError("cannot snapshot a never-bootstrapped checker")
        return {
            "results": {
                uid: self._results[uid].to_dict() for uid in sorted(self._results)
            },
            "digests": {
                uid: {
                    "logical": [list(key) for key in _ordered_keys(digest.logical)],
                    "deployed": [list(key) for key in _ordered_keys(digest.deployed)],
                }
                for uid, digest in sorted(self._digests.items())
            },
            "pairs": [
                {
                    "pair": list(pair),
                    "rules": [
                        rule.to_dict() for rule in self._pair_rules[pair].values()
                    ],
                    "placement": list(self._pair_placement.get(pair, ())),
                }
                for pair in sorted(self._pair_rules)
            ],
            "switch_rules": {
                uid: [rule.to_dict() for rule in self._switch_rules[uid].values()]
                for uid in sorted(self._switch_rules)
            },
            "switch_refs": {
                uid: [
                    [list(key), count]
                    for key, count in self._switch_refs[uid].items()
                ]
                for uid in sorted(self._switch_refs)
            },
            "dirty_switches": sorted(self._dirty),
            "dirty_pairs": [list(pair) for pair in sorted(self._dirty_pairs)],
            "pending_objects": [
                [uid, object_type.value if object_type is not None else None]
                for uid, object_type in self._pending_objects
            ],
            "index_dirty": self._index_dirty,
            "stats": {key: getattr(self, key) for key in _STAT_KEYS},
        }

    def restore_state(self, state: Dict, with_stats: bool = True) -> None:
        """Adopt a :meth:`snapshot_state` payload (scoped to owned switches).

        The policy index is rebuilt from the controller's *current* policy —
        legitimate because every pre-snapshot change already recorded its
        old-index blast radius into the serialized dirty sets — and the
        saved ``index_dirty`` flag is kept, so unresolved object blast radii
        resolve against a rebuilt index exactly like an uninterrupted
        checker would.  No full sweep runs: ``full_checks`` moves only by
        what ``with_stats`` restores.  A malformed payload raises before
        anything changes.
        """
        self.parse_state(state, with_stats)()

    def parse_state(self, state: Dict, with_stats: bool = True) -> Callable[[], None]:
        """Parse a :meth:`snapshot_state` payload and return the step that
        adopts it — :meth:`restore_state` in two halves, so a monitor can
        parse every partition's slice before any checker changes.  Parsing
        raises on a malformed payload and touches nothing; the returned step
        cannot fail on the payload's account.
        """
        results = {
            uid: SwitchCheckResult.from_dict(data)
            for uid, data in state.get("results", {}).items()
            if self._owns(uid)
        }
        digests = {
            uid: SwitchDigest(
                logical=frozenset(tuple(key) for key in digest["logical"]),
                deployed=frozenset(tuple(key) for key in digest["deployed"]),
            )
            for uid, digest in state.get("digests", {}).items()
            if self._owns(uid)
        }
        pair_rules: Dict[EpgPair, Dict[MatchKey, TcamRule]] = {}
        pair_placement: Dict[EpgPair, Tuple[str, ...]] = {}
        for entry in state.get("pairs", ()):
            placement = tuple(entry.get("placement", ()))
            if self._owned is not None and not any(
                self._owns(uid) for uid in placement
            ):
                continue
            pair = EpgPair(*entry["pair"])
            rules = [TcamRule.from_dict(data) for data in entry.get("rules", ())]
            pair_rules[pair] = {rule.match_key(): rule for rule in rules}
            pair_placement[pair] = placement
        switch_rules = {
            uid: {
                rule.match_key(): rule
                for rule in (TcamRule.from_dict(data) for data in rule_dicts)
            }
            for uid, rule_dicts in state.get("switch_rules", {}).items()
            if self._owns(uid)
        }
        switch_refs = {
            uid: {tuple(key): count for key, count in refs}
            for uid, refs in state.get("switch_refs", {}).items()
            if self._owns(uid)
        }
        dirty = {uid for uid in state.get("dirty_switches", ()) if self._owns(uid)}
        dirty_pairs = {EpgPair(*pair) for pair in state.get("dirty_pairs", ())}
        pending_objects = [
            (uid, ObjectType(type_value) if type_value is not None else None)
            for uid, type_value in state.get("pending_objects", ())
        ]
        index_dirty = bool(state.get("index_dirty", False))
        stats = state.get("stats", {})
        counters = {key: stats.get(key, 0) for key in _STAT_KEYS} if with_stats else {}
        if not all(type(value) is int for value in counters.values()):
            raise ValueError(f"stats must be integers, got {counters!r}")

        def adopt() -> None:
            self._results, self._digests = results, digests
            self._pair_rules, self._pair_placement = pair_rules, pair_placement
            self._switch_rules, self._switch_refs = switch_rules, switch_refs
            self._dirty, self._dirty_pairs = dirty, dirty_pairs
            self._pending_objects = pending_objects
            self._index = PolicyIndex(self.controller.policy)
            self._index_dirty = index_dirty
            for key, value in counters.items():
                setattr(self, key, value)

        return adopt


# ---------------------------------------------------------------------- #
# Snapshot plumbing
# ---------------------------------------------------------------------- #
def _ordered_keys(keys: FrozenSet[MatchKey]) -> List[MatchKey]:
    """Match keys in a stable order (``port`` may be ``None``, so a plain
    sort over the tuples would compare ``None`` with ``int``)."""
    return sorted(
        keys,
        key=lambda key: (
            key[0],
            key[1],
            key[2],
            key[3],
            key[4] is not None,
            key[4] if key[4] is not None else 0,
            key[5],
        ),
    )


def merge_checker_states(states: Sequence[Dict]) -> Dict:
    """Merge per-partition :meth:`IncrementalChecker.snapshot_state` payloads.

    Switch-keyed maps are disjoint by ownership and merge trivially.  Pair
    caches overlap on pairs spanning a partition boundary — both owners
    compiled them from the same index, so either copy is correct and the
    merge dedupes by pair.  Dirty sets union; unresolved object blast radii
    dedupe in first-seen order (a partition whose index was rebuilt early,
    e.g. through an external ``.index`` access, holds a suffix of the
    others); counters sum, so aggregated monitor stats survive a restore.
    """
    if not states:
        raise ValueError("cannot merge zero checker states")
    merged: Dict = {
        "results": {},
        "digests": {},
        "pairs": [],
        "switch_rules": {},
        "switch_refs": {},
        "dirty_switches": set(),
        "dirty_pairs": set(),
        "pending_objects": [],
        "index_dirty": False,
        "stats": {key: 0 for key in _STAT_KEYS},
    }
    pairs: Dict[Tuple[str, str], Dict] = {}
    seen_pending = set()
    for state in states:
        merged["results"].update(state.get("results", {}))
        merged["digests"].update(state.get("digests", {}))
        merged["switch_rules"].update(state.get("switch_rules", {}))
        merged["switch_refs"].update(state.get("switch_refs", {}))
        merged["dirty_switches"].update(state.get("dirty_switches", ()))
        merged["dirty_pairs"].update(tuple(p) for p in state.get("dirty_pairs", ()))
        merged["index_dirty"] |= bool(state.get("index_dirty", False))
        for entry in state.get("pairs", ()):
            pairs[tuple(entry["pair"])] = entry
        for uid, type_value in state.get("pending_objects", ()):
            if (uid, type_value) not in seen_pending:
                seen_pending.add((uid, type_value))
                merged["pending_objects"].append([uid, type_value])
        for key in _STAT_KEYS:
            merged["stats"][key] += state.get("stats", {}).get(key, 0)
    merged["pairs"] = [pairs[pair] for pair in sorted(pairs)]
    for section in ("results", "digests", "switch_rules", "switch_refs"):
        merged[section] = dict(sorted(merged[section].items()))
    merged["dirty_switches"] = sorted(merged["dirty_switches"])
    merged["dirty_pairs"] = [list(pair) for pair in sorted(merged["dirty_pairs"])]
    return merged
