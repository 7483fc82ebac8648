"""Network policy abstraction model (APIC / PGA / GBP style).

This package is the first substrate of the reproduction: tenants, VRFs,
endpoint groups, contracts, filters and endpoints, plus the dependency
queries the risk models are built from.
"""

from .builder import PolicyBuilder, three_tier_policy
from .graph import PolicyIndex, epg_pairs_per_object
from .objects import (
    ANY_PORT,
    Contract,
    Endpoint,
    Epg,
    EpgPair,
    Filter,
    FilterEntry,
    ObjectType,
    PolicyObject,
    Vrf,
)
from .tenant import NetworkPolicy, Tenant
from .validation import policy_issues, validate_policy

__all__ = [
    "ANY_PORT",
    "Contract",
    "Endpoint",
    "Epg",
    "EpgPair",
    "Filter",
    "FilterEntry",
    "NetworkPolicy",
    "ObjectType",
    "PolicyBuilder",
    "PolicyIndex",
    "PolicyObject",
    "Tenant",
    "Vrf",
    "epg_pairs_per_object",
    "policy_issues",
    "three_tier_policy",
    "validate_policy",
]
