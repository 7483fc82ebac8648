"""Policy dependency index.

:class:`PolicyIndex` — flat maps between EPG pairs, policy objects and
switches.  It is the one place the controller derives them: the risk
models, the rule compiler, the churn driver and the experiments all read
it.  An edited policy's index is derived from the previous one and costs what
the edit touches (:meth:`PolicyIndex.derive`).
"""

from __future__ import annotations

import copy
import weakref
from collections import defaultdict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .objects import (
    Contract,
    Endpoint,
    Epg,
    EpgPair,
    Filter,
    ObjectType,
    PolicyObject,
    Vrf,
)
from .tenant import NetworkPolicy

__all__ = [
    "PolicyIndex",
    "epg_pairs_per_object",
    "object_tables",
]

#: The index attributes holding the five tables of :func:`object_tables`.
_TABLES = ("_vrfs", "_epgs", "_contracts", "_filters", "_endpoints")

#: One pair's entry: its contracts, the risks it relies on, its switches.
_Entry = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]
_NO_ENTRY: _Entry = ((), (), ())

#: The argument :meth:`PolicyIndex.derive` takes, shaped like :func:`object_tables`.
Tables = Sequence[Sequence[PolicyObject]]


def object_tables(policy: NetworkPolicy) -> List[List[PolicyObject]]:
    """Every object of ``policy``, one list per type: what an index is a
    function of.

    Policy objects are frozen, so this comparing equal to
    :meth:`PolicyIndex.object_tables` (an identity check per unchanged
    object) means a fresh index would come out the same; any edit — through
    the controller or written straight into a tenant table — shows as a
    difference.
    """
    return [
        list(policy.vrfs()),
        list(policy.epgs()),
        list(policy.contracts()),
        list(policy.filters()),
        list(policy.endpoints()),
    ]


class _CopyOnWrite(dict):
    """The entries of ``shared`` — a map of containers an earlier index
    still reads — that one derivation rewrites.  The first read of a key
    here copies its container, so ``shared`` is never written."""

    def __init__(self, shared: Mapping, copy_of: Callable) -> None:
        super().__init__()
        self._shared = shared
        self._copy_of = copy_of

    def __missing__(self, key):
        value = self[key] = self._copy_of(self._shared.get(key, ()))
        return value

    def merged(self) -> Mapping:
        """``shared`` with the rewritten entries in place, empty ones gone."""
        if not self:
            return self._shared
        merged = {**self._shared, **self}
        for key, value in self.items():
            if not value:
                del merged[key]
        return merged


class PolicyIndex:
    """Dependency maps over a :class:`NetworkPolicy`: which EPG pairs exist,
    which objects each relies on and which switches host it.

    An index is never edited once built.  A changed policy gets a new one
    from :meth:`derive`, which diffs the object tables and recomputes only
    the pairs of the EPGs the difference can affect, sharing every other
    entry with this index; ``PolicyIndex(policy)`` is that same derivation
    from an empty index, with every EPG affected.  Either costs what it
    recomputes: the affected EPGs' contract relations plus their pairs'
    shared-risk edges — for a cold build, exactly the size of the risk
    models built from it.
    """

    def __init__(self, policy: NetworkPolicy, tables: Optional[Tables] = None):
        self.policy = policy
        #: The objects this index describes, shaped like :func:`object_tables`.
        self._tables: Tuple[List[PolicyObject], ...] = tuple([] for _ in _TABLES)
        self._vrfs: Dict[str, Vrf] = {}
        self._epgs: Dict[str, Epg] = {}
        self._contracts: Dict[str, Contract] = {}
        self._filters: Dict[str, Filter] = {}
        self._endpoints: Dict[str, Endpoint] = {}
        # Contract uid -> EPGs providing / consuming it, filter uid ->
        # contracts listing it, EPG uid -> switch -> endpoints attached
        # there: what a derivation names the affected EPGs by.
        self._providers: Mapping[str, Set[str]] = {}
        self._consumers: Mapping[str, Set[str]] = {}
        self._filter_contracts: Mapping[str, Set[str]] = {}
        self._attachments: Mapping[str, Dict[str, int]] = {}

        self._pairs: List[EpgPair] = []
        self._pair_entries: Dict[EpgPair, _Entry] = {}
        self._object_pairs: Mapping[str, Set[EpgPair]] = {}
        self._epg_switches: Mapping[str, List[str]] = {}
        self._switch_pairs: Mapping[str, List[EpgPair]] = {}
        #: What :meth:`risk_structure` holds: key -> (leaf or None, structure).
        self._risk_structures: Dict[Hashable, Tuple[Optional[str], object]] = {}
        #: For a derived index: a weak reference to its source and the pairs
        #: whose compile inputs may differ from the source's.
        self._lineage: Optional[Tuple[weakref.ref, FrozenSet[EpgPair]]] = None

        self._update(object_tables(policy) if tables is None else tables)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def derive(self, tables: Tables) -> "PolicyIndex":
        """The index of ``tables`` (shaped like :func:`object_tables`),
        derived from this one.

        Built from ``tables`` alone, never from a second read of the
        policy, so it describes exactly the objects it was handed.  This
        index is left as it was and is not referenced by the new one (a weak
        reference aside), so a chain of derivations holds one index alive.
        """
        derived = copy.copy(self)
        moved, payload = derived._update(tables)
        for uid in payload:
            moved.update(derived._object_pairs.get(uid, ()))
        derived._lineage = (weakref.ref(self), frozenset(moved))
        return derived

    def _update(self, tables: Tables) -> Tuple[Set[EpgPair], Set[str]]:
        """Bring the maps this index still shares with its source up to
        ``tables``, replacing — never writing — whatever changes.

        Returns the pairs it recomputed and the VRF and filter uids whose
        object changed (a rule payload the pairs relying on them read).
        """
        held = {name: getattr(self, name) for name in _TABLES}
        # Per table, the objects it lost or replaced and those it gained or
        # replaced them with.
        gone: Dict[str, List] = {}
        came: Dict[str, List] = {}
        kept_tables = []
        for name, known, table in zip(_TABLES, self._tables, tables):
            if known == table:  # an identity check per unchanged object
                kept_tables.append(known)
                gone[name] = came[name] = []
                continue
            kept_tables.append(list(table))
            before, after = held[name], {obj.uid: obj for obj in table}
            setattr(self, name, after)
            gone[name] = [
                obj for uid, obj in before.items() if after.get(uid) is not obj
            ]
            came[name] = [
                obj for uid, obj in after.items() if before.get(uid) is not obj
            ]
        self._tables = tuple(kept_tables)
        epgs, contracts = self._epgs, self._contracts

        # Relations: every lost object's are taken out, every gained one's put in.
        providers = _CopyOnWrite(self._providers, set)
        consumers = _CopyOnWrite(self._consumers, set)
        for epg in gone["_epgs"]:
            for contract_uid in epg.provides:
                providers[contract_uid].discard(epg.uid)
            for contract_uid in epg.consumes:
                consumers[contract_uid].discard(epg.uid)
        for epg in came["_epgs"]:
            for contract_uid in epg.provides:
                providers[contract_uid].add(epg.uid)
            for contract_uid in epg.consumes:
                consumers[contract_uid].add(epg.uid)
        filter_contracts = _CopyOnWrite(self._filter_contracts, set)
        for contract in gone["_contracts"]:
            for filter_uid in contract.filter_uids:
                filter_contracts[filter_uid].discard(contract.uid)
        for contract in came["_contracts"]:
            for filter_uid in contract.filter_uids:
                filter_contracts[filter_uid].add(contract.uid)
        attachments = _CopyOnWrite(self._attachments, dict)
        for endpoint in gone["_endpoints"]:
            if endpoint.switch_uid is not None:
                counts = attachments[endpoint.epg_uid]
                counts[endpoint.switch_uid] -= 1
                if not counts[endpoint.switch_uid]:
                    del counts[endpoint.switch_uid]
        for endpoint in came["_endpoints"]:
            if endpoint.switch_uid is not None:
                counts = attachments[endpoint.epg_uid]
                counts[endpoint.switch_uid] = counts.get(endpoint.switch_uid, 0) + 1

        # The affected EPGs: edited, added or removed ones; those whose
        # switch set moved; the consumers of a contract that changed or lists
        # a filter that appeared or disappeared — every pair through the
        # contract has one, and an EPG that consumed it and does not now was
        # edited itself.
        affected = {epg.uid for epg in gone["_epgs"] + came["_epgs"]}
        epg_switches = _CopyOnWrite(self._epg_switches, list)
        for epg_uid, counts in attachments.items():
            switches = sorted(counts)
            if switches != self._epg_switches.get(epg_uid, []):
                epg_switches[epg_uid] = switches
                affected.add(epg_uid)
        self._attachments = attachments.merged()
        self._epg_switches = epg_switches.merged()
        self._providers = providers.merged()
        self._consumers = consumers.merged()
        self._filter_contracts = filter_contracts.merged()
        touched_contracts = {
            contract.uid for contract in gone["_contracts"] + came["_contracts"]
        }
        for flt in gone["_filters"] + came["_filters"]:
            if (flt.uid in self._filters) != (flt.uid in held["_filters"]):
                touched_contracts.update(self._filter_contracts.get(flt.uid, ()))
        for contract_uid in touched_contracts:
            affected.update(self._consumers.get(contract_uid, ()))

        # Their pairs, before and after: each (provider, consumer, contract)
        # relation with an affected end is found once, from the provider
        # when it is affected.
        moved: Set[EpgPair] = set()
        for epg_uid in affected:
            for pair in self._object_pairs.get(epg_uid, ()):
                if epg_uid in pair:
                    moved.add(pair)
        found: Dict[EpgPair, Set[str]] = defaultdict(set)
        for epg_uid in affected:
            epg = epgs.get(epg_uid)
            if epg is None:
                continue
            for contract_uid in epg.provides:
                if contract_uid not in contracts:
                    continue
                for other in self._consumers.get(contract_uid, ()):
                    # Pairs only form inside one VRF: the VRF is the L3 scope,
                    # so cross-VRF provide/consume relations (possible when a
                    # contract is reused by several tenant tiers) whitelist
                    # nothing and are excluded everywhere consistently (see
                    # SwitchAgent.render).
                    if other != epg_uid and epgs[other].vrf_uid == epg.vrf_uid:
                        found[EpgPair(epg_uid, other)].add(contract_uid)
            for contract_uid in epg.consumes:
                if contract_uid not in contracts:
                    continue
                for other in self._providers.get(contract_uid, ()):
                    if other not in affected and epgs[other].vrf_uid == epg.vrf_uid:
                        found[EpgPair(other, epg_uid)].add(contract_uid)
        moved.update(found)

        self._replace_entries(moved, found)
        payload = gone["_vrfs"] + came["_vrfs"] + gone["_filters"] + came["_filters"]
        return moved, {obj.uid for obj in payload}

    def _replace_entries(
        self, moved: Set[EpgPair], found: Dict[EpgPair, Set[str]]
    ) -> None:
        """Recompute the entries of ``moved`` (``found``: the contracts of
        those that exist now) and replace the maps holding one that came out
        different, with the risk-structure slots that read it."""
        entries = self._pair_entries
        reshaped: Dict[EpgPair, Optional[_Entry]] = {}
        object_pairs = _CopyOnWrite(self._object_pairs, set)
        left: Dict[str, Set[EpgPair]] = defaultdict(set)
        arrived: Dict[str, List[EpgPair]] = defaultdict(list)
        for pair in sorted(moved):
            was, contract_uids = entries.get(pair), found.get(pair)
            now = self._entry(pair, contract_uids) if contract_uids else None
            if now == was:
                continue
            reshaped[pair] = now
            was, now = was or _NO_ENTRY, now or _NO_ENTRY
            # A switch hosting either EPG of a pair is itself a shared risk
            # for that pair (Fig. 3 counts switches as objects).
            before, after = was[1] + was[2], now[1] + now[2]
            kept = set(before).intersection(after)
            for uid in before:
                if uid not in kept:
                    object_pairs[uid].discard(pair)
            for uid in after:
                if uid not in kept:
                    object_pairs[uid].add(pair)
            for switch_uid in was[2]:
                left[switch_uid].add(pair)
            for switch_uid in now[2]:
                arrived[switch_uid].append(pair)
        if not reshaped:
            return

        added = [pair for pair in reshaped if pair not in entries]
        removed = {pair for pair, entry in reshaped.items() if entry is None}
        self._pair_entries = entries = {**entries, **reshaped}
        for pair in removed:
            del entries[pair]
        if added or removed:
            self._pairs = sorted(
                [pair for pair in self._pairs if pair not in removed] + added
            )
        self._object_pairs = object_pairs.merged()
        switch_pairs = _CopyOnWrite(self._switch_pairs, list)
        for switch_uid in left.keys() | arrived.keys():
            dropped = left.get(switch_uid, ())
            kept = [pair for pair in switch_pairs[switch_uid] if pair not in dropped]
            switch_pairs[switch_uid] = sorted(kept + arrived.get(switch_uid, []))
        self._switch_pairs = switch_pairs.merged()
        # A leaf's risk structure reads only its pairs' entries; the fabric's
        # reads every pair's.
        touched = left.keys() | arrived.keys()
        self._risk_structures = {
            key: slot
            for key, slot in self._risk_structures.items()
            if slot[0] is not None and slot[0] not in touched
        }

    def _entry(self, pair: EpgPair, contract_uids: Set[str]) -> _Entry:
        """``pair``'s entry: its contracts, the objects it relies on (VRF,
        EPGs, then per contract the contract and its existing filters) and
        the switches hosting either EPG."""
        first, second = pair
        filters, epg_switches = self._filters, self._epg_switches
        contracts = tuple(sorted(contract_uids))
        uids = [self._epgs[first].vrf_uid, self._epgs[second].vrf_uid, first, second]
        for contract_uid in contracts:
            uids.append(contract_uid)
            for uid in self._contracts[contract_uid].filter_uids:
                if uid in filters:
                    uids.append(uid)
        risks = dict.fromkeys(uids)
        risks.pop("", None)
        switches = {*epg_switches.get(first, ()), *epg_switches.get(second, ())}
        return contracts, tuple(risks), tuple(sorted(switches))

    def object_tables(self) -> List[List[PolicyObject]]:
        """The objects this index was built from, shaped like :func:`object_tables`.

        The index's own copy of what it was handed, not a second read of
        the policy, so it names exactly what the index saw even if another
        thread edited the policy while it was being built.
        """
        return [list(table) for table in self._tables]

    def pairs_moved_since(self, index: "PolicyIndex") -> Optional[FrozenSet[EpgPair]]:
        """The pairs whose compile inputs may differ from ``index``'s — the
        pairs the derivation from it recomputed, plus those relying on a VRF
        or filter it replaced — or ``None`` when this index was not derived
        from ``index``."""
        if index is self:
            return frozenset()
        if self._lineage is not None and self._lineage[0]() is index:
            return self._lineage[1]
        return None

    def risk_structure(
        self, key: Hashable, build: Callable[[], object], leaf: Optional[str] = None
    ) -> Tuple[object, bool]:
        """The value held under ``key`` — ``build()`` the first time — and
        whether it was already there.

        The slot the risk-model builders keep their element ↔ risk structure
        in (:func:`repro.risk.model.cached_model`).  ``leaf`` names the one
        switch whose pairs the structure reads, ``None`` a structure of the
        whole fabric.  A derived index keeps a leaf's slot while none of
        that leaf's pairs moved, and the fabric's while no pair did; when
        nothing moved it shares the slots with its source both ways.
        ``build`` must return something nobody edits afterwards; it is
        stored by one assignment, so two threads asking at once both get a
        complete value (one of them builds in vain).
        """
        held = self._risk_structures.get(key)
        if held is not None:
            return held[1], True
        structure = build()
        self._risk_structures[key] = (leaf, structure)
        return structure, False

    # ------------------------------------------------------------------ #
    # Lookup API
    # ------------------------------------------------------------------ #
    @property
    def pairs(self) -> List[EpgPair]:
        """All EPG pairs implied by the policy, sorted."""
        return list(self._pairs)

    def contracts_for_pair(self, pair: EpgPair) -> List[str]:
        return list(self._pair_entries.get(pair, _NO_ENTRY)[0])

    def risks_for_pair(self, pair: EpgPair) -> List[str]:
        """Policy-object uids the pair relies on (VRF, EPGs, contracts, filters)."""
        return list(self._pair_entries.get(pair, _NO_ENTRY)[1])

    def pairs_for_object(self, uid: str) -> List[EpgPair]:
        """EPG pairs depending on object ``uid`` (``G_i`` in §IV-B)."""
        return sorted(self._object_pairs.get(uid, ()))

    def switches_for_epg(self, epg_uid: str) -> List[str]:
        return list(self._epg_switches.get(epg_uid, ()))

    def switches_for_pair(self, pair: EpgPair) -> List[str]:
        return list(self._pair_entries.get(pair, _NO_ENTRY)[2])

    def pairs_on_switch(self, switch_uid: str) -> List[EpgPair]:
        return list(self._switch_pairs.get(switch_uid, ()))

    def all_switches(self) -> List[str]:
        return sorted(self._switch_pairs)

    def epg(self, uid: str) -> Epg:
        return self._epgs[uid]

    def contract(self, uid: str) -> Contract:
        return self._contracts[uid]

    def filter(self, uid: str) -> Filter:
        return self._filters[uid]

    def vrf(self, uid: str) -> Vrf:
        return self._vrfs[uid]

    def endpoint(self, uid: str) -> Endpoint:
        return self._endpoints[uid]

    def object_types(self) -> Mapping[str, ObjectType]:
        """Map every known object uid (plus switches) to its object type."""
        types: Dict[str, ObjectType] = {}
        for uid in self._vrfs:
            types[uid] = ObjectType.VRF
        for uid in self._epgs:
            types[uid] = ObjectType.EPG
        for uid in self._contracts:
            types[uid] = ObjectType.CONTRACT
        for uid in self._filters:
            types[uid] = ObjectType.FILTER
        for switch_uid in self._switch_pairs:
            types[switch_uid] = ObjectType.SWITCH
        return types


def epg_pairs_per_object(
    policy: NetworkPolicy, index: PolicyIndex | None = None
) -> Dict[ObjectType, Dict[str, int]]:
    """Count, per object, how many EPG pairs depend on it (Figure 3 data).

    Returns ``{object_type: {object_uid: pair_count}}`` covering VRFs, EPGs,
    contracts, filters and switches, mirroring the five series of the paper's
    Figure 3 CDF.
    """
    index = index or PolicyIndex(policy)
    result: Dict[ObjectType, Dict[str, int]] = {
        ObjectType.VRF: {},
        ObjectType.EPG: {},
        ObjectType.CONTRACT: {},
        ObjectType.FILTER: {},
        ObjectType.SWITCH: {},
    }
    types = index.object_types()
    for uid, object_type in types.items():
        if object_type in result:
            result[object_type][uid] = len(index.pairs_for_object(uid))
    return result
