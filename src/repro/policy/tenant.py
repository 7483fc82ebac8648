"""Tenant and network-policy containers.

A :class:`Tenant` owns a coherent set of policy objects (VRFs, EPGs,
contracts, filters, endpoints).  A :class:`NetworkPolicy` is the global
desired state held by the controller: one or more tenants plus indexed
look-ups that the compiler, the risk models and the fault localizer all use.

The container exposes the *dependency queries* at the heart of the paper:

* which EPG pairs exist (``epg_pairs``),
* which policy objects a given pair relies on (``shared_risks_for_pair``),
* which pairs rely on a given object (``pairs_for_object``),
* which EPGs / pairs are present on a given switch
  (``epgs_on_switch`` / ``pairs_on_switch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..exceptions import DuplicateObjectError, UnknownObjectError
from .objects import (
    Contract,
    Endpoint,
    Epg,
    EpgPair,
    Filter,
    PolicyObject,
    Vrf,
    pairs_from_epgs,
)

__all__ = ["Tenant", "NetworkPolicy"]


@dataclass
class Tenant:
    """A named tenant owning a set of policy objects.

    Objects are stored in insertion-ordered dictionaries keyed by uid; the
    class enforces uid uniqueness within the tenant but performs no semantic
    validation (that is the job of :mod:`repro.policy.validation`).
    """

    name: str
    vrfs: Dict[str, Vrf] = field(default_factory=dict)
    epgs: Dict[str, Epg] = field(default_factory=dict)
    contracts: Dict[str, Contract] = field(default_factory=dict)
    filters: Dict[str, Filter] = field(default_factory=dict)
    endpoints: Dict[str, Endpoint] = field(default_factory=dict)

    def _store(self, table: Dict[str, PolicyObject], obj: PolicyObject) -> None:
        if obj.uid in table:
            raise DuplicateObjectError(f"object {obj.uid!r} already exists in tenant {self.name!r}")
        table[obj.uid] = obj

    def add_vrf(self, vrf: Vrf) -> Vrf:
        self._store(self.vrfs, vrf)
        return vrf

    def add_epg(self, epg: Epg) -> Epg:
        self._store(self.epgs, epg)
        return epg

    def add_contract(self, contract: Contract) -> Contract:
        self._store(self.contracts, contract)
        return contract

    def add_filter(self, flt: Filter) -> Filter:
        self._store(self.filters, flt)
        return flt

    def add_endpoint(self, endpoint: Endpoint) -> Endpoint:
        self._store(self.endpoints, endpoint)
        return endpoint

    def replace_epg(self, epg: Epg) -> Epg:
        """Replace an existing EPG (used when updating contract relations)."""
        if epg.uid not in self.epgs:
            raise UnknownObjectError(f"EPG {epg.uid!r} not found in tenant {self.name!r}")
        self.epgs[epg.uid] = epg
        return epg

    def replace_endpoint(self, endpoint: Endpoint) -> Endpoint:
        """Replace an existing endpoint (used when attaching to a switch)."""
        if endpoint.uid not in self.endpoints:
            raise UnknownObjectError(f"endpoint {endpoint.uid!r} not found in tenant {self.name!r}")
        self.endpoints[endpoint.uid] = endpoint
        return endpoint

    def objects(self) -> Iterator[PolicyObject]:
        """Iterate over every policy object owned by the tenant."""
        yield from self.vrfs.values()
        yield from self.epgs.values()
        yield from self.contracts.values()
        yield from self.filters.values()
        yield from self.endpoints.values()

    def object_count(self) -> int:
        return (
            len(self.vrfs)
            + len(self.epgs)
            + len(self.contracts)
            + len(self.filters)
            + len(self.endpoints)
        )


class NetworkPolicy:
    """The global desired state: every tenant's policy plus index structures.

    The controller owns exactly one :class:`NetworkPolicy`.  All mutating
    operations go through the controller (which records change logs); the
    policy object itself only offers structural queries.
    """

    def __init__(self, tenants: Optional[Sequence[Tenant]] = None):
        self.tenants: Dict[str, Tenant] = {}
        for tenant in tenants or ():
            self.add_tenant(tenant)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_tenant(self, tenant: Tenant) -> Tenant:
        if tenant.name in self.tenants:
            raise DuplicateObjectError(f"tenant {tenant.name!r} already present")
        self.tenants[tenant.name] = tenant
        return tenant

    # ------------------------------------------------------------------ #
    # Object lookup
    # ------------------------------------------------------------------ #
    def _find(self, uid: str) -> Optional[PolicyObject]:
        for tenant in self.tenants.values():
            for table in (tenant.vrfs, tenant.epgs, tenant.contracts, tenant.filters, tenant.endpoints):
                if uid in table:
                    return table[uid]
        return None

    def get(self, uid: str) -> PolicyObject:
        """Return the policy object with ``uid`` or raise :class:`UnknownObjectError`."""
        obj = self._find(uid)
        if obj is None:
            raise UnknownObjectError(f"no policy object with uid {uid!r}")
        return obj

    def __contains__(self, uid: str) -> bool:
        return self._find(uid) is not None

    def tenant_of(self, uid: str) -> Tenant:
        """Return the tenant that owns the object with ``uid``."""
        for tenant in self.tenants.values():
            for table in (tenant.vrfs, tenant.epgs, tenant.contracts, tenant.filters, tenant.endpoints):
                if uid in table:
                    return tenant
        raise UnknownObjectError(f"no policy object with uid {uid!r}")

    # Typed iterators -------------------------------------------------- #
    def vrfs(self) -> Iterator[Vrf]:
        for tenant in self.tenants.values():
            yield from tenant.vrfs.values()

    def epgs(self) -> Iterator[Epg]:
        for tenant in self.tenants.values():
            yield from tenant.epgs.values()

    def contracts(self) -> Iterator[Contract]:
        for tenant in self.tenants.values():
            yield from tenant.contracts.values()

    def filters(self) -> Iterator[Filter]:
        for tenant in self.tenants.values():
            yield from tenant.filters.values()

    def endpoints(self) -> Iterator[Endpoint]:
        for tenant in self.tenants.values():
            yield from tenant.endpoints.values()

    def objects(self) -> Iterator[PolicyObject]:
        for tenant in self.tenants.values():
            yield from tenant.objects()

    def object_count(self) -> int:
        return sum(tenant.object_count() for tenant in self.tenants.values())

    # ------------------------------------------------------------------ #
    # Dependency queries
    # ------------------------------------------------------------------ #
    def epg_pairs(self) -> List[EpgPair]:
        """All EPG pairs implied by contract provide/consume relations."""
        return pairs_from_epgs(self.epgs())

    def contracts_between(self, pair: EpgPair) -> List[Contract]:
        """Contracts that bind the two EPGs of ``pair`` together."""
        epg_a = self.get(pair.first)
        epg_b = self.get(pair.second)
        assert isinstance(epg_a, Epg) and isinstance(epg_b, Epg)
        shared = (epg_a.consumes & epg_b.provides) | (epg_b.consumes & epg_a.provides)
        return [self.get(uid) for uid in sorted(shared)]  # type: ignore[misc]

    def shared_risks_for_pair(self, pair: EpgPair) -> List[str]:
        """Uids of every policy object the pair relies on (§III).

        For the Web-App pair of Figure 1 this is: VRF:101, EPG:Web, EPG:App,
        Contract:Web-App and Filter:80/allow — exactly the right-hand side of
        the switch risk model in Figure 4(a).
        """
        epg_a = self.get(pair.first)
        epg_b = self.get(pair.second)
        assert isinstance(epg_a, Epg) and isinstance(epg_b, Epg)
        risks: list[str] = []
        seen: set[str] = set()

        def _add(uid: str) -> None:
            if uid and uid not in seen:
                seen.add(uid)
                risks.append(uid)

        _add(epg_a.vrf_uid)
        if epg_b.vrf_uid != epg_a.vrf_uid:
            _add(epg_b.vrf_uid)
        _add(epg_a.uid)
        _add(epg_b.uid)
        for contract in self.contracts_between(pair):
            _add(contract.uid)
            for filter_uid in contract.filter_uids:
                if filter_uid in self:
                    _add(filter_uid)
        return risks

    def pairs_for_object(self, uid: str) -> List[EpgPair]:
        """All EPG pairs that depend on the policy object ``uid``.

        This is the dependency direction used for Figure 3 (the CDF of EPG
        pairs per object) and for computing hit ratios.
        """
        pairs = []
        for pair in self.epg_pairs():
            if uid in self.shared_risks_for_pair(pair):
                pairs.append(pair)
        return pairs

    # ------------------------------------------------------------------ #
    # Switch-placement queries (used by the compiler and risk models)
    # ------------------------------------------------------------------ #
    def endpoints_in_epg(self, epg_uid: str) -> List[Endpoint]:
        return [ep for ep in self.endpoints() if ep.epg_uid == epg_uid]

    def switches_for_epg(self, epg_uid: str) -> List[str]:
        """Leaf switches hosting at least one endpoint of ``epg_uid``."""
        switches = {
            ep.switch_uid
            for ep in self.endpoints_in_epg(epg_uid)
            if ep.switch_uid is not None
        }
        return sorted(switches)

    def epgs_on_switch(self, switch_uid: str) -> List[Epg]:
        """EPGs that have at least one endpoint attached to ``switch_uid``."""
        epg_uids = {
            ep.epg_uid for ep in self.endpoints() if ep.switch_uid == switch_uid
        }
        return [epg for epg in self.epgs() if epg.uid in epg_uids]

    def pairs_on_switch(self, switch_uid: str) -> List[EpgPair]:
        """EPG pairs deployed on ``switch_uid``.

        Per §II-A the controller sends the instructions about an EPG to every
        switch one of its endpoints is attached to, so a pair is present on a
        switch as soon as *either* EPG has an endpoint there (switch S2 in
        Figure 1 carries both the Web-App and the App-DB pair because EP2 of
        EPG:App lives there).
        """
        local_epgs = {epg.uid for epg in self.epgs_on_switch(switch_uid)}
        return [
            pair
            for pair in self.epg_pairs()
            if pair.first in local_epgs or pair.second in local_epgs
        ]

    def switches_for_pair(self, pair: EpgPair) -> List[str]:
        """Every switch on which rules for ``pair`` must be installed."""
        switches = set(self.switches_for_epg(pair.first))
        switches.update(self.switches_for_epg(pair.second))
        return sorted(switches)

    def all_switches(self) -> List[str]:
        """Every switch referenced by at least one attached endpoint."""
        return sorted(
            {ep.switch_uid for ep in self.endpoints() if ep.switch_uid is not None}
        )

    # ------------------------------------------------------------------ #
    # Summary helpers
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, int]:
        """Object counts by type — handy for logging and the experiments."""
        return {
            "tenants": len(self.tenants),
            "vrfs": sum(1 for _ in self.vrfs()),
            "epgs": sum(1 for _ in self.epgs()),
            "contracts": sum(1 for _ in self.contracts()),
            "filters": sum(1 for _ in self.filters()),
            "endpoints": sum(1 for _ in self.endpoints()),
            "epg_pairs": len(self.epg_pairs()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = self.summary()
        return (
            f"NetworkPolicy(tenants={counts['tenants']}, vrfs={counts['vrfs']}, "
            f"epgs={counts['epgs']}, contracts={counts['contracts']}, "
            f"filters={counts['filters']}, endpoints={counts['endpoints']})"
        )
