"""Cached policy dependency index.

:class:`PolicyIndex` — flat, cached maps between EPG pairs, policy objects
and switches.  The risk models, the rule compiler and the experiments all
go through the index because the naive per-query traversals in
:class:`~repro.policy.tenant.NetworkPolicy` become too slow at the paper's
production-cluster scale (hundreds of EPGs, tens of thousands of pairs).
"""

from __future__ import annotations

import copy
from collections import defaultdict
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

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


class PolicyIndex:
    """Precomputed dependency maps over a :class:`NetworkPolicy`.

    The index is a read-only snapshot: if the policy is mutated (e.g. the
    controller applies a change), build a fresh index.  Construction is
    linear in the number of contract relations plus the number of
    (pair, shared-risk) edges, which is exactly the size of the risk models
    built from it.
    """

    def __init__(self, policy: NetworkPolicy):
        self.policy = policy
        self._epgs: Dict[str, Epg] = {epg.uid: epg for epg in policy.epgs()}
        self._contracts: Dict[str, Contract] = {c.uid: c for c in policy.contracts()}
        self._filters: Dict[str, Filter] = {f.uid: f for f in policy.filters()}
        self._vrfs: Dict[str, Vrf] = {v.uid: v for v in policy.vrfs()}
        self._endpoints: Dict[str, Endpoint] = {e.uid: e for e in policy.endpoints()}

        self._pairs: List[EpgPair] = []
        self._pair_contracts: Dict[EpgPair, List[str]] = {}
        self._pair_risks: Dict[EpgPair, List[str]] = {}
        self._object_pairs: Dict[str, Set[EpgPair]] = defaultdict(set)
        self._epg_switches: Dict[str, List[str]] = {}
        self._switch_pairs: Dict[str, List[EpgPair]] = defaultdict(list)
        self._pair_switches: Dict[EpgPair, List[str]] = {}
        #: What :meth:`risk_structure` holds.  A function of the maps above,
        #: so an index derived by :meth:`with_payload` shares it with them.
        self._risk_structures: Dict[Hashable, object] = {}

        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        providers: Dict[str, Set[str]] = defaultdict(set)
        consumers: Dict[str, Set[str]] = defaultdict(set)
        for epg in self._epgs.values():
            for contract_uid in epg.provides:
                providers[contract_uid].add(epg.uid)
            for contract_uid in epg.consumes:
                consumers[contract_uid].add(epg.uid)

        pair_contracts: Dict[EpgPair, Set[str]] = defaultdict(set)
        for contract_uid in self._contracts:
            for provider in providers.get(contract_uid, ()):
                for consumer in consumers.get(contract_uid, ()):
                    if provider == consumer:
                        continue
                    # Pairs only form inside one VRF: the VRF is the L3 scope,
                    # so cross-VRF provide/consume relations (possible when a
                    # contract is reused by several tenant tiers) whitelist
                    # nothing and are excluded everywhere consistently (see
                    # pairs_from_epgs and SwitchAgent.desired_rules).
                    if self._epgs[provider].vrf_uid != self._epgs[consumer].vrf_uid:
                        continue
                    pair_contracts[EpgPair(provider, consumer)].add(contract_uid)

        self._pairs = sorted(pair_contracts)
        self._pair_contracts = {
            pair: sorted(contracts) for pair, contracts in pair_contracts.items()
        }

        for pair, contract_uids in self._pair_contracts.items():
            risks: list[str] = []
            seen: set[str] = set()

            def _add(uid: str) -> None:
                if uid and uid not in seen:
                    seen.add(uid)
                    risks.append(uid)

            epg_a = self._epgs[pair.first]
            epg_b = self._epgs[pair.second]
            _add(epg_a.vrf_uid)
            _add(epg_b.vrf_uid)
            _add(epg_a.uid)
            _add(epg_b.uid)
            for contract_uid in contract_uids:
                _add(contract_uid)
                contract = self._contracts[contract_uid]
                for filter_uid in contract.filter_uids:
                    if filter_uid in self._filters:
                        _add(filter_uid)
            self._pair_risks[pair] = risks
            for uid in risks:
                self._object_pairs[uid].add(pair)

        epg_switches: Dict[str, Set[str]] = defaultdict(set)
        for endpoint in self._endpoints.values():
            if endpoint.switch_uid is not None:
                epg_switches[endpoint.epg_uid].add(endpoint.switch_uid)
        self._epg_switches = {uid: sorted(s) for uid, s in epg_switches.items()}

        for pair in self._pairs:
            switches = set(self._epg_switches.get(pair.first, ()))
            switches.update(self._epg_switches.get(pair.second, ()))
            switch_list = sorted(switches)
            self._pair_switches[pair] = switch_list
            for switch_uid in switch_list:
                self._switch_pairs[switch_uid].append(pair)
                # A switch hosting either EPG of a pair is itself a shared
                # risk for that pair (Fig. 3 counts switches as objects).
                self._object_pairs[switch_uid].add(pair)

    def object_tables(self) -> List[List[PolicyObject]]:
        """The objects this index was built from, shaped like :func:`object_tables`.

        Taken from the index's own maps, not from a second read of the
        policy, so it names exactly what the index saw even if another
        thread edited the policy while it was being built.
        """
        return [
            list(table.values())
            for table in (
                self._vrfs,
                self._epgs,
                self._contracts,
                self._filters,
                self._endpoints,
            )
        ]

    def with_payload(self, tables: List[List[PolicyObject]]) -> Optional["PolicyIndex"]:
        """The index of ``tables`` (shaped like :func:`object_tables`) derived
        from this one, or ``None`` when that takes a re-index.

        Filters and VRFs carry rule-level payload only (entries, scope): with
        their uids and every other table unchanged, which pairs exist, what
        they rely on and where they are placed cannot have moved.  The copy
        shares every dependency map with this index — nothing edits an
        index's maps once built — and this one keeps the old objects.
        """
        vrfs, epgs, contracts, filters, endpoints = tables
        if (
            [vrf.uid for vrf in vrfs] != list(self._vrfs)
            or [flt.uid for flt in filters] != list(self._filters)
            or epgs != list(self._epgs.values())
            or contracts != list(self._contracts.values())
            or endpoints != list(self._endpoints.values())
        ):
            return None
        derived = copy.copy(self)
        derived._vrfs = {vrf.uid: vrf for vrf in vrfs}
        derived._filters = {flt.uid: flt for flt in filters}
        return derived

    def risk_structure(self, key: Hashable, build: Callable[[], object]) -> Tuple[object, bool]:
        """The value held under ``key`` — ``build()`` the first time — and
        whether it was already there.

        The slot the risk-model builders keep their element ↔ risk structure
        in (:func:`repro.risk.model.cached_model`): which pair relies on what
        and where it is placed is fixed for the life of the dependency maps,
        so the structure is valid exactly as long as they are — a payload
        edit derives an index that shares both, a structural edit re-indexes
        and starts empty.  ``build`` must return something nobody edits
        afterwards; it is stored by one assignment, so two threads asking at
        once both get a complete value (one of them builds in vain).
        """
        held = self._risk_structures.get(key)
        if held is not None:
            return held, True
        held = self._risk_structures[key] = build()
        return held, False

    # ------------------------------------------------------------------ #
    # Lookup API
    # ------------------------------------------------------------------ #
    @property
    def pairs(self) -> List[EpgPair]:
        """All EPG pairs implied by the policy, sorted."""
        return list(self._pairs)

    def contracts_for_pair(self, pair: EpgPair) -> List[str]:
        return list(self._pair_contracts.get(pair, ()))

    def risks_for_pair(self, pair: EpgPair) -> List[str]:
        """Policy-object uids the pair relies on (VRF, EPGs, contracts, filters)."""
        return list(self._pair_risks.get(pair, ()))

    def pairs_for_object(self, uid: str) -> List[EpgPair]:
        """EPG pairs depending on object ``uid`` (``G_i`` in §IV-B)."""
        return sorted(self._object_pairs.get(uid, ()))

    def switches_for_epg(self, epg_uid: str) -> List[str]:
        return list(self._epg_switches.get(epg_uid, ()))

    def switches_for_pair(self, pair: EpgPair) -> List[str]:
        return list(self._pair_switches.get(pair, ()))

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
