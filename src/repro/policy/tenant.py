"""Tenant and network-policy containers.

A :class:`Tenant` owns a coherent set of policy objects (VRFs, EPGs,
contracts, filters, endpoints).  A :class:`NetworkPolicy` is the global
desired state held by the controller: one or more tenants, with look-up by
uid and typed iteration over their objects.

The *dependency queries* at the heart of the paper — which EPG pairs exist,
which objects a pair relies on, which pairs rely on an object, which
switches host an EPG or a pair — are answered by
:class:`~repro.policy.graph.PolicyIndex`, derived from these tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..exceptions import DuplicateObjectError, UnknownObjectError
from .objects import Contract, Endpoint, Epg, Filter, PolicyObject, Vrf

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
            raise DuplicateObjectError(
                f"object {obj.uid!r} already exists in tenant {self.name!r}"
            )
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
            raise UnknownObjectError(
                f"EPG {epg.uid!r} not found in tenant {self.name!r}"
            )
        self.epgs[epg.uid] = epg
        return epg

    def replace_endpoint(self, endpoint: Endpoint) -> Endpoint:
        """Replace an existing endpoint (used when attaching to a switch)."""
        if endpoint.uid not in self.endpoints:
            raise UnknownObjectError(
                f"endpoint {endpoint.uid!r} not found in tenant {self.name!r}"
            )
        self.endpoints[endpoint.uid] = endpoint
        return endpoint

    def objects(self) -> Iterator[PolicyObject]:
        """Iterate over every policy object owned by the tenant."""
        yield from self.vrfs.values()
        yield from self.epgs.values()
        yield from self.contracts.values()
        yield from self.filters.values()
        yield from self.endpoints.values()


class NetworkPolicy:
    """The global desired state: every tenant's policy objects.

    The controller owns exactly one :class:`NetworkPolicy`.  All mutating
    operations go through the controller (which records change logs); the
    policy object itself only offers look-up by uid and typed iteration.
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
    def _locate(self, uid: str) -> Tuple[Tenant, PolicyObject]:
        """The tenant owning the object with ``uid``, and the object."""
        for tenant in self.tenants.values():
            for table in (
                tenant.vrfs,
                tenant.epgs,
                tenant.contracts,
                tenant.filters,
                tenant.endpoints,
            ):
                if uid in table:
                    return tenant, table[uid]
        raise UnknownObjectError(f"no policy object with uid {uid!r}")

    def get(self, uid: str) -> PolicyObject:
        """The policy object with ``uid``; :class:`UnknownObjectError` if none."""
        return self._locate(uid)[1]

    def __contains__(self, uid: str) -> bool:
        try:
            self._locate(uid)
        except UnknownObjectError:
            return False
        return True

    def tenant_of(self, uid: str) -> Tenant:
        """Return the tenant that owns the object with ``uid``."""
        return self._locate(uid)[0]

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
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = self.summary()
        return (
            f"NetworkPolicy(tenants={counts['tenants']}, vrfs={counts['vrfs']}, "
            f"epgs={counts['epgs']}, contracts={counts['contracts']}, "
            f"filters={counts['filters']}, endpoints={counts['endpoints']})"
        )
