"""Fluent builder for assembling network policies.

The raw object model in :mod:`repro.policy.objects` is immutable and keyed by
uids, which makes hand-writing policies verbose.  :class:`PolicyBuilder`
provides the high-level vocabulary used throughout the examples, tests and
workload generators:

>>> builder = PolicyBuilder(tenant="acme")
>>> vrf = builder.vrf("prod", scope_id=101)
>>> web = builder.epg("Web", vrf=vrf)
>>> app = builder.epg("App", vrf=vrf)
>>> http = builder.filter("http", [("tcp", 80)])
>>> builder.allow(web, app, filters=[http], contract="Web-App")
'contract:acme/Web-App'
>>> policy = builder.build()
>>> from repro.policy import PolicyIndex
>>> PolicyIndex(policy).pairs
[EpgPair('epg:acme/App', 'epg:acme/Web')]

which reproduces the 3-tier web example of the paper's Figure 1 in a handful
of lines (see ``examples/quickstart.py``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..exceptions import PolicyError, UnknownObjectError
from .objects import Contract, Endpoint, Epg, Filter, FilterEntry, Vrf
from .tenant import NetworkPolicy, Tenant

__all__ = ["PolicyBuilder"]

#: Filter entries may be given as ``FilterEntry`` objects, ``(protocol, port)``
#: tuples, or bare port numbers (interpreted as TCP).
FilterEntryLike = Union[FilterEntry, tuple, int]


def _coerce_entry(entry: FilterEntryLike) -> FilterEntry:
    if isinstance(entry, FilterEntry):
        return entry
    if isinstance(entry, int):
        return FilterEntry(protocol="tcp", port=entry)
    if isinstance(entry, tuple) and len(entry) == 2:
        protocol, port = entry
        return FilterEntry(protocol=str(protocol), port=port)
    raise PolicyError(f"cannot interpret filter entry {entry!r}")


class PolicyBuilder:
    """Incrementally construct a :class:`NetworkPolicy` for one tenant.

    The builder mints uids of the form ``"<type>:<tenant>/<name>"`` and keeps
    the working tenant mutable until :meth:`build` is called.  ``build`` can
    be called repeatedly; each call returns a policy that shares the same
    underlying tenant, which is convenient for tests that add objects between
    deployments (the controller snapshots the logical rules anyway).
    """

    def __init__(self, tenant: str = "default"):
        self.tenant = Tenant(name=tenant)
        self._epg_id_counter = 0
        self._vrf_scope_counter = 100

    # ------------------------------------------------------------------ #
    # Object creation
    # ------------------------------------------------------------------ #
    def vrf(self, name: str, scope_id: Optional[int] = None) -> str:
        """Create a VRF and return its uid."""
        if scope_id is None:
            self._vrf_scope_counter += 1
            scope_id = self._vrf_scope_counter
        uid = f"vrf:{self.tenant.name}/{name}"
        self.tenant.add_vrf(Vrf(uid=uid, name=name, scope_id=scope_id))
        return uid

    def epg(self, name: str, vrf: str) -> str:
        """Create an EPG inside ``vrf`` and return its uid."""
        if vrf not in self.tenant.vrfs:
            raise UnknownObjectError(f"VRF {vrf!r} must be created before EPG {name!r}")
        self._epg_id_counter += 1
        uid = f"epg:{self.tenant.name}/{name}"
        self.tenant.add_epg(
            Epg(uid=uid, name=name, vrf_uid=vrf, epg_id=self._epg_id_counter)
        )
        return uid

    def filter(self, name: str, entries: Iterable[FilterEntryLike]) -> str:
        """Create a filter from ``entries`` and return its uid."""
        coerced = tuple(_coerce_entry(entry) for entry in entries)
        if not coerced:
            raise PolicyError(f"filter {name!r} needs at least one entry")
        uid = f"filter:{self.tenant.name}/{name}"
        self.tenant.add_filter(Filter(uid=uid, name=name, entries=coerced))
        return uid

    def contract(self, name: str, filters: Sequence[str]) -> str:
        """Create a contract over existing filters and return its uid."""
        for filter_uid in filters:
            if filter_uid not in self.tenant.filters:
                raise UnknownObjectError(f"filter {filter_uid!r} not found for contract {name!r}")
        uid = f"contract:{self.tenant.name}/{name}"
        self.tenant.add_contract(Contract(uid=uid, name=name, filter_uids=tuple(filters)))
        return uid

    def endpoint(
        self,
        name: str,
        epg: str,
        ip: str = "",
        switch: Optional[str] = None,
    ) -> str:
        """Create an endpoint in ``epg`` (optionally pre-attached to ``switch``)."""
        if epg not in self.tenant.epgs:
            raise UnknownObjectError(f"EPG {epg!r} not found for endpoint {name!r}")
        uid = f"endpoint:{self.tenant.name}/{name}"
        self.tenant.add_endpoint(
            Endpoint(uid=uid, name=name, epg_uid=epg, ip=ip, switch_uid=switch)
        )
        return uid

    # ------------------------------------------------------------------ #
    # Relations
    # ------------------------------------------------------------------ #
    def provide(self, epg: str, contract: str) -> None:
        """Mark ``epg`` as a provider of ``contract``."""
        self._update_epg_relations(epg, provides={contract})

    def consume(self, epg: str, contract: str) -> None:
        """Mark ``epg`` as a consumer of ``contract``."""
        self._update_epg_relations(epg, consumes={contract})

    def allow(
        self,
        consumer: str,
        provider: str,
        filters: Sequence[str] | None = None,
        contract: Optional[str] = None,
        entries: Iterable[FilterEntryLike] | None = None,
    ) -> str:
        """Allow traffic between two EPGs, creating glue objects as needed.

        Either pass existing ``filters`` or raw ``entries`` (a filter is then
        minted automatically).  A contract named ``contract`` (default
        ``"<consumer>-<provider>"``) is created if it does not already exist.
        Returns the contract uid.
        """
        if filters is None and entries is None:
            raise PolicyError("allow() needs either filters=... or entries=...")
        filter_uids = list(filters or [])
        if entries is not None:
            consumer_name = self.tenant.epgs[consumer].name
            provider_name = self.tenant.epgs[provider].name
            auto_name = f"{consumer_name}-{provider_name}-auto"
            filter_uids.append(self.filter(auto_name, entries))

        if contract is None:
            consumer_name = self.tenant.epgs[consumer].name
            provider_name = self.tenant.epgs[provider].name
            contract = f"{consumer_name}-{provider_name}"
        contract_uid = f"contract:{self.tenant.name}/{contract}"
        if contract_uid not in self.tenant.contracts:
            contract_uid = self.contract(contract, filter_uids)
        self.consume(consumer, contract_uid)
        self.provide(provider, contract_uid)
        return contract_uid

    def _update_epg_relations(
        self,
        epg_uid: str,
        provides: Optional[set[str]] = None,
        consumes: Optional[set[str]] = None,
    ) -> None:
        if epg_uid not in self.tenant.epgs:
            raise UnknownObjectError(f"EPG {epg_uid!r} not found")
        old = self.tenant.epgs[epg_uid]
        new = Epg(
            uid=old.uid,
            name=old.name,
            vrf_uid=old.vrf_uid,
            epg_id=old.epg_id,
            provides=old.provides | frozenset(provides or ()),
            consumes=old.consumes | frozenset(consumes or ()),
        )
        self.tenant.replace_epg(new)

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def build(self) -> NetworkPolicy:
        """Return a :class:`NetworkPolicy` wrapping the working tenant."""
        return NetworkPolicy([self.tenant])


def three_tier_policy() -> tuple[PolicyBuilder, dict[str, str]]:
    """Construct the paper's running example (Figure 1): Web / App / DB.

    Returns the builder (so endpoints can still be attached) and a dictionary
    of the created object uids keyed by short names (``"web"``, ``"app"``,
    ``"db"``, ``"vrf"``, ``"web_app_contract"``, ``"app_db_contract"``, ...).
    """
    builder = PolicyBuilder(tenant="webshop")
    vrf = builder.vrf("101", scope_id=101)
    web = builder.epg("Web", vrf=vrf)
    app = builder.epg("App", vrf=vrf)
    db = builder.epg("DB", vrf=vrf)
    f_http = builder.filter("port80", [("tcp", 80)])
    extra_filters = [builder.filter("port700", [("tcp", 700)])]
    web_app = builder.allow(web, app, filters=[f_http], contract="Web-App")
    app_db = builder.allow(app, db, filters=[f_http, *extra_filters], contract="App-DB")
    uids = {
        "vrf": vrf,
        "web": web,
        "app": app,
        "db": db,
        "filter_http": f_http,
        "web_app_contract": web_app,
        "app_db_contract": app_db,
    }
    for i, filter_uid in enumerate(extra_filters):
        uids[f"filter_extra_{i}"] = filter_uid
    return builder, uids
