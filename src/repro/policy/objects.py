"""Policy object model.

The paper (§II-A) describes network policies in an APIC-like abstraction:

* **Endpoint (EP)** — a server / VM / middlebox interface attached to a leaf
  switch.
* **Endpoint group (EPG)** — a named set of endpoints belonging to the same
  application tier (Web, App, DB ...).
* **Filter** — a set of traffic match entries (protocol + port) that are
  allowed between two EPGs.  Whitelisting semantics: anything not matched by
  a filter is dropped by the implicit deny rule.
* **Contract** — the glue between EPGs and filters: a contract references a
  set of filters, and EPGs *provide* or *consume* contracts.
* **VRF** — the layer-3 scope in which a set of EPGs live.

Each of these is a *policy object* and, per §III, a *shared risk*: if the
object is absent or mis-rendered at the controller, the switch agent or the
TCAM, every EPG pair that relies on it breaks.

Design notes
------------
Objects are intentionally plain, hashable dataclasses keyed by a string
``uid``.  All relationships (which EPG consumes which contract, which
endpoints belong to which EPG) are stored on the objects themselves so a
policy can be assembled incrementally by the builder without an auxiliary
relation store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ObjectType",
    "PolicyObject",
    "Vrf",
    "FilterEntry",
    "Filter",
    "Contract",
    "Epg",
    "Endpoint",
    "EpgPair",
    "ANY_PORT",
]

#: Sentinel used in :class:`FilterEntry` to mean "any destination port".
ANY_PORT: Optional[int] = None


class ObjectType(str, enum.Enum):
    """Kinds of policy objects recognised by the risk models.

    ``SWITCH`` is included because the paper's production study (Fig. 3)
    treats the physical switch as a shared risk alongside the logical policy
    objects, and the controller risk model localizes faults to switches.
    """

    VRF = "vrf"
    EPG = "epg"
    CONTRACT = "contract"
    FILTER = "filter"
    ENDPOINT = "endpoint"
    SWITCH = "switch"
    TENANT = "tenant"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PolicyObject:
    """Base class for all policy objects.

    Attributes
    ----------
    uid:
        Globally unique identifier, e.g. ``"vrf:prod/101"``.  All
        cross-references between objects use uids.
    name:
        Human readable name, e.g. ``"VRF:101"``.
    """

    uid: str
    name: str

    @property
    def object_type(self) -> ObjectType:
        """The :class:`ObjectType` of this object (overridden by subclasses)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return f"{self.object_type.value}:{self.name}"


@dataclass(frozen=True)
class Vrf(PolicyObject):
    """A virtual-routing-and-forwarding context: the L3 scope of its EPGs.

    ``scope_id`` is the numeric identifier written into TCAM rules
    (``VRF:101`` in the paper's Figure 2).
    """

    scope_id: int = 0

    @property
    def object_type(self) -> ObjectType:
        return ObjectType.VRF


@dataclass(frozen=True, order=True)
class FilterEntry:
    """A single match entry inside a :class:`Filter`.

    Matches traffic of ``protocol`` (``"tcp"``, ``"udp"``, ``"icmp"`` or
    ``"any"``) on destination port ``port`` (``None`` means any port).  The
    action is always *allow*: the policy model is whitelisting, and the
    implicit catch-all deny is materialised by the rule compiler.
    """

    protocol: str = "tcp"
    port: Optional[int] = ANY_PORT

    def __post_init__(self) -> None:
        if self.port is not None and not (0 <= self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")
        if self.protocol not in ("tcp", "udp", "icmp", "any"):
            raise ValueError(f"unsupported protocol: {self.protocol!r}")

    def describe(self) -> str:
        """Human-readable description, e.g. ``"tcp/80"`` or ``"udp/any"``."""
        port = "any" if self.port is None else str(self.port)
        return f"{self.protocol}/{port}"


@dataclass(frozen=True)
class Filter(PolicyObject):
    """A named set of allowed traffic classes (e.g. ``Filter: port 80/allow``)."""

    entries: tuple[FilterEntry, ...] = ()

    @property
    def object_type(self) -> ObjectType:
        return ObjectType.FILTER

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))

    def describe(self) -> str:
        """Summary such as ``"tcp/80, tcp/700"``."""
        return ", ".join(entry.describe() for entry in self.entries) or "<empty>"


@dataclass(frozen=True)
class Contract(PolicyObject):
    """Glue object binding provider/consumer EPGs to a set of filters.

    A contract only references filters; which EPGs participate is recorded on
    the EPGs themselves (``provides`` / ``consumes``), mirroring the APIC
    model where contracts are reusable across many EPG pairs.
    """

    filter_uids: tuple[str, ...] = ()

    @property
    def object_type(self) -> ObjectType:
        return ObjectType.CONTRACT

    def __post_init__(self) -> None:
        if not isinstance(self.filter_uids, tuple):
            object.__setattr__(self, "filter_uids", tuple(self.filter_uids))


@dataclass(frozen=True)
class Epg(PolicyObject):
    """Endpoint group: an application tier living inside one VRF.

    Attributes
    ----------
    vrf_uid:
        The VRF this EPG belongs to.
    epg_id:
        Numeric class identifier written into TCAM rules (source/destination
        EPG fields).
    provides / consumes:
        Contracts this EPG provides or consumes.  An EPG pair exists between
        a consumer and a provider of the same contract.
    """

    vrf_uid: str = ""
    epg_id: int = 0
    provides: frozenset[str] = frozenset()
    consumes: frozenset[str] = frozenset()

    @property
    def object_type(self) -> ObjectType:
        return ObjectType.EPG

    def __post_init__(self) -> None:
        if not isinstance(self.provides, frozenset):
            object.__setattr__(self, "provides", frozenset(self.provides))
        if not isinstance(self.consumes, frozenset):
            object.__setattr__(self, "consumes", frozenset(self.consumes))

    def contracts(self) -> frozenset[str]:
        """All contracts this EPG participates in (provided or consumed)."""
        return self.provides | self.consumes


@dataclass(frozen=True)
class Endpoint(PolicyObject):
    """A concrete endpoint (server / VM NIC) that belongs to exactly one EPG.

    ``switch_uid`` records the leaf switch the endpoint is attached to; it is
    assigned by the fabric when the endpoint is connected and consumed by the
    rule compiler to decide which switches need which EPGs.
    """

    epg_uid: str = ""
    ip: str = ""
    mac: str = ""
    switch_uid: Optional[str] = None

    @property
    def object_type(self) -> ObjectType:
        return ObjectType.ENDPOINT

    def attached_to(self, switch_uid: str) -> "Endpoint":
        """Return a copy of this endpoint attached to ``switch_uid``."""
        return Endpoint(
            uid=self.uid,
            name=self.name,
            epg_uid=self.epg_uid,
            ip=self.ip,
            mac=self.mac,
            switch_uid=switch_uid,
        )


class EpgPair(tuple):
    """An unordered pair of EPG uids that are allowed to communicate.

    The paper's risk models use EPG *pairs* (Web-App, App-DB, ...) as the
    affected elements.  Pairs are unordered — traffic is whitelisted in both
    directions by the compiler — so ``EpgPair(a, b) == EpgPair(b, a)``.
    """

    __slots__ = ()

    def __new__(cls, epg_a: str, epg_b: str) -> "EpgPair":
        if epg_a == epg_b:
            # Intra-EPG traffic is implicitly allowed in the ACI model and is
            # not governed by contracts, so a degenerate pair is an error.
            raise ValueError(f"an EPG pair requires two distinct EPGs, got {epg_a!r} twice")
        first, second = sorted((epg_a, epg_b))
        return super().__new__(cls, (first, second))

    @property
    def first(self) -> str:
        return self[0]

    @property
    def second(self) -> str:
        return self[1]

    def other(self, epg_uid: str) -> str:
        """Return the member of the pair that is not ``epg_uid``."""
        if epg_uid == self[0]:
            return self[1]
        if epg_uid == self[1]:
            return self[0]
        raise KeyError(f"{epg_uid!r} is not part of pair {self}")

    def __repr__(self) -> str:
        return f"EpgPair({self[0]!r}, {self[1]!r})"
