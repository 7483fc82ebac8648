"""L-T equivalence checker.

The checker compares, per switch, the *logical* rules compiled from the
network policy (L-type) against the rules actually present in the switch
TCAM (T-type), exactly as §III-C describes:

1. build one ROBDD from the L rules and one from the T rules;
2. if the two ROBDDs are equivalent there is no inconsistency;
3. otherwise emit the set of **missing rules** — L rules whose traffic is not
   covered by the deployed TCAM state — which the risk models consume as
   observations.

Extra (superfluous) TCAM rules are also reported for completeness; the fault
localization problem the paper studies is driven by the missing side.

Two engines give the same semantic answer:

* ``engine="ap"`` (the default, and the only production engine) — atomic
  predicates: the header space is compressed once into equivalence classes
  (:class:`~repro.verify.atoms.AtomTable`, patched incrementally on rule
  deltas) and L-T comparison becomes integer-bitset set algebra — over the
  triples the two sides' key-set difference touches, which for an
  unchanged switch is none (see :class:`EquivalenceChecker`).
* ``engine="bdd"`` — the faithful ROBDD comparison, kept as the differential
  **oracle**: tests, ``benchmarks/bench_ap.py`` and the operator cross-check
  ``POST /audits {"engine": "bdd"}`` gate the AP engine's
  ``semantic_fingerprint()`` byte-identical to it.

``ENGINES`` below is the single source of truth for the engine vocabulary
(``docs/engines.md`` is checked against it by the unit tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import VerificationError
from ..obs import span
from ..rules import MatchKey, RuleCarrier, RuleSequence, TcamRule, TcamSnapshot
from .atoms import AtomTable, Triple
from .encoding import RuleSpace

__all__ = [
    "SwitchCheckResult",
    "EquivalenceReport",
    "EquivalenceChecker",
    "KeyDelta",
    "ENGINES",
]

#: Every accepted ``engine=`` value; the first is the default.  Keep the
#: ``Engine`` Literal and ``docs/engines.md`` in sync with this tuple.
ENGINES: Tuple[str, ...] = ("ap", "bdd")

Engine = Literal["ap", "bdd"]


@dataclass
class SwitchCheckResult:
    """Outcome of the L-T comparison for one switch."""

    switch_uid: str
    equivalent: bool
    missing_rules: List[TcamRule] = field(default_factory=list)
    extra_rules: List[TcamRule] = field(default_factory=list)
    logical_count: int = 0
    deployed_count: int = 0
    engine: str = ENGINES[0]

    def missing_count(self) -> int:
        return len(self.missing_rules)

    def to_dict(self) -> Dict:
        """JSON-ready form; rules keep their provenance (see ``TcamRule.to_dict``)."""
        return {
            "switch_uid": self.switch_uid,
            "equivalent": self.equivalent,
            "engine": self.engine,
            "logical_count": self.logical_count,
            "deployed_count": self.deployed_count,
            "missing_rules": [rule.to_dict() for rule in self.missing_rules],
            "extra_rules": [rule.to_dict() for rule in self.extra_rules],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SwitchCheckResult":
        """Inverse of :meth:`to_dict`.

        The engine label is an opaque string: documents written by earlier
        versions carry labels (``"hash"``) no current engine produces.
        """
        return cls(
            switch_uid=data["switch_uid"],
            equivalent=data["equivalent"],
            missing_rules=[TcamRule.from_dict(r) for r in data.get("missing_rules", ())],
            extra_rules=[TcamRule.from_dict(r) for r in data.get("extra_rules", ())],
            logical_count=data.get("logical_count", 0),
            deployed_count=data.get("deployed_count", 0),
            engine=data.get("engine", ENGINES[0]),
        )


@dataclass
class EquivalenceReport:
    """Network-wide L-T comparison: one :class:`SwitchCheckResult` per switch."""

    results: Dict[str, SwitchCheckResult] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        return all(result.equivalent for result in self.results.values())

    def missing_rules(self) -> Dict[str, List[TcamRule]]:
        """Per-switch missing rules (only switches with at least one miss)."""
        return {
            uid: result.missing_rules
            for uid, result in self.results.items()
            if result.missing_rules
        }

    def total_missing(self) -> int:
        return sum(len(result.missing_rules) for result in self.results.values())

    def total_extra(self) -> int:
        return sum(len(result.extra_rules) for result in self.results.values())

    def switches_with_violations(self) -> List[str]:
        return sorted(uid for uid, result in self.results.items() if not result.equivalent)

    def summary(self) -> Dict[str, int]:
        return {
            "switches": len(self.results),
            "switches_with_violations": len(self.switches_with_violations()),
            "missing_rules": self.total_missing(),
            "extra_rules": self.total_extra(),
        }

    def to_dict(self) -> Dict:
        """Stable JSON form: sorted switches, the summary and the fingerprint.

        The per-switch dicts carry full rule provenance, so a report rebuilt
        from this payload (:meth:`from_dict`) fingerprints byte-identically
        to the original.
        """
        return {
            "summary": self.summary(),
            "fingerprint": self.fingerprint(),
            "switches": {uid: self.results[uid].to_dict() for uid in sorted(self.results)},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EquivalenceReport":
        """Inverse of :meth:`to_dict`: same verdicts, same :meth:`fingerprint`."""
        switches = data.get("switches", {})
        return cls(
            results={
                uid: SwitchCheckResult.from_dict(switches[uid])
                for uid in sorted(switches)
            }
        )

    def canonical(self) -> "EquivalenceReport":
        """An engine-agnostic, order-canonical copy of this report.

        Two reports describing the same *network state* can still differ in
        two observably irrelevant ways: which engine produced each verdict
        (the ``ap`` default or the ``bdd`` oracle) and the order the missing/extra
        rule lists were emitted in (a pair-patched logical cache iterates
        rules in a different insertion order than a from-scratch compile).
        ``canonical()`` normalizes both — the engine label collapses to
        ``"semantic"`` and the rule lists are sorted by match key and
        provenance — so ``canonical().fingerprint()`` is identical iff the
        verdicts, counts and rule *sets* (with full provenance) agree.
        This is the identity the churn subsystem's differential oracle
        (incremental-under-churn vs. from-scratch recheck) gates on.
        """

        def rule_order(rule: TcamRule) -> Tuple:
            return (
                repr(rule.match_key()),
                rule.vrf_uid,
                rule.src_epg_uid,
                rule.dst_epg_uid,
                rule.contract_uid,
                rule.filter_uid,
            )

        normalized = EquivalenceReport()
        for switch_uid, result in self.results.items():
            normalized.results[switch_uid] = SwitchCheckResult(
                switch_uid=result.switch_uid,
                equivalent=result.equivalent,
                missing_rules=sorted(result.missing_rules, key=rule_order),
                extra_rules=sorted(result.extra_rules, key=rule_order),
                logical_count=result.logical_count,
                deployed_count=result.deployed_count,
                engine="semantic",
            )
        return normalized

    def semantic_fingerprint(self) -> str:
        """:meth:`fingerprint` of the :meth:`canonical` form (oracle identity)."""
        return self.canonical().fingerprint()

    def fingerprint(self) -> str:
        """SHA-256 over a canonical serialization of every per-switch result.

        Switches are serialized in sorted-uid order with their verdicts,
        engines, counts and full rule tuples (provenance included), so two
        reports carry the same fingerprint iff they are observably identical
        — whichever engine, executor or shard plan produced them.  The
        parallel verification benchmarks gate serial/parallel equality on
        this.
        """

        def rule_bytes(rule: TcamRule) -> str:
            return repr(
                (
                    rule.match_key(),
                    rule.vrf_uid,
                    rule.src_epg_uid,
                    rule.dst_epg_uid,
                    rule.contract_uid,
                    rule.filter_uid,
                )
            )

        digest = hashlib.sha256()
        for switch_uid in sorted(self.results):
            result = self.results[switch_uid]
            digest.update(
                repr(
                    (
                        switch_uid,
                        result.equivalent,
                        result.engine,
                        result.logical_count,
                        result.deployed_count,
                        [rule_bytes(rule) for rule in result.missing_rules],
                        [rule_bytes(rule) for rule in result.extra_rules],
                    )
                ).encode("utf-8")
            )
        return digest.hexdigest()


class KeyDelta(NamedTuple):
    """The key difference one ``ap`` proof of a switch was decided on:
    ``l_only = L - T`` and ``t_only = T - L`` of the ``logical`` and
    ``deployed`` sequences it names, and whether it was folded from an
    earlier proof's (:meth:`EquivalenceChecker.prove_switch`) rather than
    taken over the keys."""

    logical: RuleSequence
    deployed: RuleCarrier
    l_only: FrozenSet[MatchKey]
    t_only: FrozenSet[MatchKey]
    folded: bool


class EquivalenceChecker:
    """Compare desired (L) and deployed (T) rules and emit missing rules.

    ``atoms`` optionally shares a long-lived :class:`AtomTable` (e.g. a
    worker process's table from
    :class:`~repro.parallel.memo.CompiledStateCache`); by default the
    checker owns one, which is what lets `IncrementalChecker.refresh` and
    churn checkpoints patch rather than rebuild the atom universe.

    The ``ap`` check is **delta-scoped**.  Both sides arrive as key
    carriers — L a :class:`~repro.rules.RuleSequence`, T usually a TCAM's
    :class:`~repro.rules.TcamSnapshot` — and the checker takes
    the key-set difference ``l_only = L - T`` / ``t_only = T - L`` one of two
    ways.  Over the keys, in the one place under ``src/repro`` that compares
    two key sets (:meth:`_key_delta`: ``L - T`` first, ``T - L`` only when
    the counts say T holds a key outside L, so a switch that is healthy or
    only lost rules costs one pass over L).  Or, for a switch proved before
    against the same L, whose TCAM handed out T right after the proved one,
    folded from that proof's difference in the size of the TCAM's change
    (:meth:`prove_switch`).  Then:

    * both empty — the sides are the same match/action set, hence the same
      semantics: an **identity proof**, no engine (:meth:`identity_proof`,
      which the parallel sweep calls directly);
    * otherwise — only the ``(vrf, src_epg, dst_epg)`` triples an allow
      key of the difference touches are looked at.  That is exact, not a
      heuristic: a triple's region is the OR of *that triple's* allow-key
      bitsets (:meth:`AtomTable.regions`), so a triple whose allow keys are
      the same on both sides has equal regions by construction and can
      contribute nothing to ``l & ~t`` or ``t & ~l``; and a rule whose key
      is on both sides is covered by the other side's region, so the
      reported ``missing_rules`` are a subset of ``l_only`` and
      ``extra_rules`` of ``t_only``.  A touched triple where neither L
      (:meth:`RuleSequence.wildcard_triples`) nor ``t_only`` holds a
      wildcard allow key is *closed*: every allow key there is
      :meth:`AtomTable.exact` on both sides, distinct exact keys are
      disjoint cubes, so its one-side allow keys are exactly the missing
      and extra ones — decided on the keys, no regions built.  Regions are
      built only for the *open* rest.  Verdict, counts, rule objects,
      order and duplicates equal the full-universe computation (kept as a
      test-only reference in
      ``tests/property/test_ap_differential_properties.py``) and the
      ``bdd`` oracle.

    Every allow key of ``L ∪ T`` is still validated against the rule space
    — before any verdict, identity proofs included: L once per immutable
    sequence and table (:attr:`RuleSequence.observed_by`), ``t_only`` per
    call (``T - t_only`` is a subset of L) — so an out-of-range field or
    unknown protocol raises the same :class:`VerificationError` from
    :meth:`check_network`, :meth:`check_many` and the monitor's refresh,
    wherever the offending key sits.  ``engine="bdd"`` takes no shortcut:
    it stays an independent full proof of every switch.
    """

    def __init__(
        self,
        rule_space: Optional[RuleSpace] = None,
        engine: Engine = ENGINES[0],
        atoms: Optional[AtomTable] = None,
    ) -> None:
        if engine not in ENGINES:
            known = ", ".join(ENGINES)
            raise VerificationError(
                f"unknown checker engine {engine!r} (expected one of: {known})"
            )
        self.rule_space = rule_space or RuleSpace()
        self.engine = engine
        self.atoms = atoms if atoms is not None else AtomTable(self.rule_space)
        #: How this checker's switches split, lifetime totals and whichever
        #: entry point asked: settled by key-set identity versus handed to
        #: an engine (here, or by :meth:`check_many` to a shard).
        self.identity_proofs = 0
        self.dispatched = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def check_switch(
        self,
        switch_uid: str,
        logical: Sequence[TcamRule],
        deployed: Collection[TcamRule],
    ) -> SwitchCheckResult:
        """Compare one switch's logical and deployed rules."""
        return self.prove_switch(switch_uid, logical, deployed)[0]

    def prove_switch(
        self,
        switch_uid: str,
        logical: Sequence[TcamRule],
        deployed: Collection[TcamRule],
        since: Optional[KeyDelta] = None,
    ) -> Tuple[SwitchCheckResult, Optional[KeyDelta]]:
        """:meth:`check_switch`, also returning the key delta the verdict
        was decided on (None under ``engine="bdd"``, which takes none).

        ``since`` is an earlier proof of the same switch.  When ``logical``
        is its L and ``deployed`` was handed out by the TCAM right after its
        T (:meth:`TcamSnapshot.change_since`), the delta is folded from it
        in the size of the change: with ``added`` / ``removed`` the keys T
        gained and lost, ``l_only' = (l_only - added) | (removed & L)`` and
        ``t_only' = (t_only - removed) | (added - L)``.  Otherwise — no
        ``since``, another L, a T with no recorded change or one following
        another sequence — it is taken over the keys (:meth:`_key_delta`).
        The ``check.switch`` span counts which: ``folded_deltas`` or
        ``full_deltas`` (with its ``key_passes``).
        """
        logical, deployed = RuleSequence.of(logical), RuleSequence.of(deployed)
        with span("check.switch", switch=switch_uid, engine=self.engine) as current:
            current.count("rules", len(logical) + len(deployed))
            if self.engine == "bdd":
                self.dispatched += 1
                return self._check_with_bdd(switch_uid, logical, deployed), None
            delta = None if since is None else self._folded_delta(since, logical, deployed)
            if delta is None:
                delta = KeyDelta(
                    logical, deployed, *self._key_delta(logical, deployed), False
                )
                current.count("full_deltas", 1)
                # The second pass is the T - L one, taken iff T had an extra key.
                current.count("key_passes", 2 if delta.t_only else 1)
            else:
                current.count("folded_deltas", 1)
            l_only, t_only = delta.l_only, delta.t_only
            if not l_only and not t_only:
                return self._proven(switch_uid, logical, deployed), delta
            self.dispatched += 1
            current.count("delta_checks", 1)
            result = self._check_delta(switch_uid, logical, deployed, l_only, t_only)
            return result, delta

    def identity_proof(
        self,
        switch_uid: str,
        logical: RuleSequence,
        deployed: RuleCarrier,
    ) -> Optional[SwitchCheckResult]:
        """The equivalent result when both sides are one key set, else None.

        The "unchanged ⇒ equivalent" rule for the parallel sweep, which
        ships what is left to shards.  Both sides are validated first, so an
        invalid rule raises here exactly as it would in an engine.  Always
        None under ``engine="bdd"``.
        """
        if self.engine == "bdd":
            return None
        l_only, t_only = self._key_delta(logical, deployed)
        if l_only or t_only:
            return None
        return self._proven(switch_uid, logical, deployed)

    def check_network(
        self,
        logical: Dict[str, Sequence[TcamRule]],
        deployed: Dict[str, Collection[TcamRule]],
    ) -> EquivalenceReport:
        """Compare every switch present in either snapshot."""
        report = EquivalenceReport()
        for switch_uid in sorted(set(logical) | set(deployed)):
            report.results[switch_uid] = self.check_switch(
                switch_uid, logical.get(switch_uid, ()), deployed.get(switch_uid, ())
            )
        return report

    def check_many(
        self,
        switches: Iterable[Tuple[str, Sequence[TcamRule], Collection[TcamRule]]],
        executor=None,
        max_workers: Optional[int] = None,
        plan=None,
    ) -> EquivalenceReport:
        """Check a batch of ``(uid, logical, deployed)`` triples, sharded.

        The batch counterpart of :meth:`check_switch`: per-switch work is
        partitioned into ``max_workers`` balanced shards and dispatched to
        ``executor`` (the caller's
        :class:`~repro.parallel.pool.WarmWorkerPool`), or run inline when
        there is none.  Either way the merged report is identical to a
        serial :meth:`check_network` over the same snapshots.  Switches
        :meth:`identity_proof` settles never reach a shard: see
        :func:`repro.parallel.engine.check_switches`.
        """
        from ..parallel.engine import check_switches

        return check_switches(
            self, switches, executor=executor, max_workers=max_workers, plan=plan
        )

    # ------------------------------------------------------------------ #
    # Engines
    # ------------------------------------------------------------------ #
    def _check_with_bdd(
        self,
        switch_uid: str,
        logical: Sequence[TcamRule],
        deployed: Collection[TcamRule],
    ) -> SwitchCheckResult:
        manager = self.rule_space.new_manager()
        with span("verify.bdd.build", switch=switch_uid) as build:
            l_bdd = self.rule_space.encode_ruleset(manager, logical)
            t_bdd = self.rule_space.encode_ruleset(manager, deployed)
            build.count("rules", len(logical) + len(deployed))
            build.count("nodes", manager.node_count())
            build.count("apply_ops", manager.apply_ops)
            build.count("apply_cache_hits", manager.apply_cache_hits)
        if manager.equivalent(l_bdd, t_bdd):
            return SwitchCheckResult(
                switch_uid=switch_uid,
                equivalent=True,
                logical_count=len(logical),
                deployed_count=len(deployed),
                engine="bdd",
            )

        ops_before = manager.apply_ops
        hits_before = manager.apply_cache_hits
        with span("verify.bdd.compare", switch=switch_uid) as compare:
            # Missing: logical rules whose match set is not fully covered by T.
            missing_region = manager.apply_diff(l_bdd, t_bdd)
            missing: list[TcamRule] = []
            if missing_region != manager.FALSE:
                for rule in logical:
                    if rule.action != "allow":
                        continue
                    cube = self.rule_space.encode_rule(manager, rule)
                    if manager.apply_and(cube, missing_region) != manager.FALSE:
                        missing.append(rule)

            # Extra: deployed rules allowing traffic the policy does not allow.
            extra_region = manager.apply_diff(t_bdd, l_bdd)
            extra: list[TcamRule] = []
            if extra_region != manager.FALSE:
                for rule in deployed:
                    if rule.action != "allow":
                        continue
                    cube = self.rule_space.encode_rule(manager, rule)
                    if manager.apply_and(cube, extra_region) != manager.FALSE:
                        extra.append(rule)
            compare.count("apply_ops", manager.apply_ops - ops_before)
            compare.count("apply_cache_hits", manager.apply_cache_hits - hits_before)

        return SwitchCheckResult(
            switch_uid=switch_uid,
            equivalent=False,
            missing_rules=missing,
            extra_rules=extra,
            logical_count=len(logical),
            deployed_count=len(deployed),
            engine="bdd",
        )

    def _key_delta(
        self, logical: RuleSequence, deployed: RuleCarrier
    ) -> Tuple[FrozenSet[MatchKey], FrozenSet[MatchKey]]:
        """``(L - T, T - L)`` over match keys, both sides validated first.

        ``L - T`` is taken first, probing T's distinct keys as T carries
        them (``distinct_keys()``: a TCAM snapshot's lent dict, a
        sequence's frozenset).
        ``|L & T|`` is then ``|L| - |L - T|``, and T holds a key outside L
        exactly when ``|T|`` differs from it: only then is ``T - L`` taken
        (the second pass over keys, on T's key set), so a healthy switch,
        or one that only lost rules, costs one pass.  The ``T - L`` keys
        are validated on every call, the empty set included.
        """
        table = self._observed(logical)
        l_keys, t_keys = logical.key_set(), deployed.distinct_keys()
        l_only = l_keys.difference(t_keys)
        if len(t_keys) == len(l_keys) - len(l_only):
            t_only: FrozenSet[MatchKey] = frozenset()
        else:
            t_only = deployed.key_set() - l_keys
        table.observe_keys(t_only)
        return l_only, t_only

    def _folded_delta(
        self, since: KeyDelta, logical: RuleSequence, deployed: RuleCarrier
    ) -> Optional[KeyDelta]:
        """``since`` moved by the key change ``deployed`` records since
        ``since.deployed``, when ``logical`` is ``since.logical``; else None
        (see :meth:`prove_switch`).  ``t_only`` is validated as
        :meth:`_key_delta` validates it."""
        if since.logical is not logical or not isinstance(deployed, TcamSnapshot):
            return None
        change = deployed.change_since(since.deployed)
        if change is None:
            return None
        added, removed = change
        self._observed(logical)
        l_keys = logical.key_set()
        l_only = (since.l_only - added) | (removed & l_keys)
        t_only = (since.t_only - removed) | (added - l_keys)
        self.atoms.observe_keys(t_only)
        return KeyDelta(logical, deployed, l_only, t_only, True)

    def _observed(self, logical: RuleSequence) -> AtomTable:
        """This checker's atom table, once it validated and folded in every
        key of ``logical`` (once per immutable sequence and table)."""
        table = self.atoms
        if table not in logical.observed_by:
            table.observe_keys(logical.keys())
            logical.observed_by += (table,)
        return table

    def _proven(
        self, switch_uid: str, logical: RuleSequence, deployed: RuleCarrier
    ) -> SwitchCheckResult:
        self.identity_proofs += 1
        return SwitchCheckResult(
            switch_uid=switch_uid,
            equivalent=True,
            logical_count=len(logical),
            deployed_count=len(deployed),
            engine=self.engine,
        )

    def _check_delta(
        self,
        switch_uid: str,
        logical: RuleSequence,
        deployed: RuleCarrier,
        l_only: FrozenSet[MatchKey],
        t_only: FrozenSet[MatchKey],
    ) -> SwitchCheckResult:
        """The AP comparison over the triples the key difference touches:
        decided on the keys where every allow key is exact, by regions
        where a wildcard can overlap another key."""
        table = self.atoms
        exact = AtomTable.exact
        with span("verify.ap.build", switch=switch_uid) as build:
            # A triple is open where L or T can hold a wildcard allow key:
            # T's wildcards under it are L's, or are in t_only.
            open_triples = logical.wildcard_triples()
            opened = {
                key[:3] for key in t_only if key[5] == "allow" and not exact(key)
            }
            if opened:
                open_triples = open_triples | opened
            touched: Set[Triple] = set()
            decided: Set[Triple] = set()
            l_missing, l_open = _split(l_only, open_triples, touched, decided)
            t_extra, t_open = _split(t_only, open_triples, touched, decided)
            l_regions: Dict[Triple, int] = {}
            t_regions: Dict[Triple, int] = {}
            l_scope: List[MatchKey] = []
            t_scope: List[MatchKey] = []
            unseen: List[Triple] = []
            if touched:
                by_triple = logical.keys_by_triple()
                l_scope = [key for triple in touched for key in by_triple.get(triple, ())]
                # T under the same triples without a pass over T: T is
                # (L - l_only) | t_only, and t_open is t_only's allow keys there.
                t_scope = [key for key in l_scope if key not in l_only]
                t_scope.extend(t_open)
                # L changes with the policy, T with every fault and resync:
                # L's regions come from its memo, computed only for triples
                # it lacks.
                memo = logical.regions_under(table)
                unseen = [triple for triple in touched if triple not in memo]
                fresh = table.regions(
                    key for triple in unseen for key in by_triple.get(triple, ())
                )
                for triple in unseen:
                    memo[triple] = fresh.get(triple, 0)
                l_regions = {triple: memo[triple] for triple in touched if memo[triple]}
                t_regions = table.regions(t_scope)
            build.count("rules", len(logical) + len(deployed))
            build.count("scoped_rules", len(l_scope) + len(t_scope))
            build.count("decided_triples", len(decided))
            build.count("touched_triples", len(touched))
            build.count("l_regions_reused", len(touched) - len(unseen))
            build.count("atoms", table.atom_count())
        result = SwitchCheckResult(
            switch_uid=switch_uid,
            equivalent=not decided and l_regions == t_regions,
            logical_count=len(logical),
            deployed_count=len(deployed),
            engine="ap",
        )
        if not result.equivalent:
            with span("verify.ap.compare", switch=switch_uid) as compare:
                # Same selection contract as the BDD scan — original rule
                # order, allow rules only, kept iff the match intersects the
                # difference — over the only keys that can: a both-sides
                # key lies inside the other side's region, and a closed
                # triple's one-side allow keys are the difference there.  A
                # re-checked L picks its rules by position from its index.
                fresh_index = not logical.positions_built()
                l_missing |= table.select_keys(
                    l_open, table.diff_regions(l_regions, t_regions)
                )
                t_extra |= table.select_keys(
                    t_open, table.diff_regions(t_regions, l_regions)
                )
                result.missing_rules = logical.select(l_missing)
                result.extra_rules = deployed.select(t_extra)
                # 1 iff this compare built L's index: L's second select (the
                # first scans; every later one reuses the index).
                compare.count(
                    "positions_built", fresh_index and logical.positions_built()
                )
        return result


def _split(
    keys: Iterable[MatchKey],
    open_triples: AbstractSet[Triple],
    touched: Set[Triple],
    decided: Set[Triple],
) -> Tuple[Set[MatchKey], List[MatchKey]]:
    """``keys``' allow keys under a closed triple, and those under one of
    ``open_triples``; each key's triple goes into ``decided`` or
    ``touched`` accordingly.  Deny keys are dropped: they allow nothing."""
    closed: Set[MatchKey] = set()
    scoped: List[MatchKey] = []
    for key in keys:
        if key[5] != "allow":
            continue
        triple = key[:3]
        if triple in open_triples:
            scoped.append(key)
            touched.add(triple)
        else:
            closed.add(key)
            decided.add(triple)
    return closed, scoped
