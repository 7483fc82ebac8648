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
    object_sort_key,
)
from .serialization import (
    policy_from_dict,
    policy_from_json,
    policy_to_dict,
    policy_to_json,
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
    "object_sort_key",
    "policy_from_dict",
    "policy_from_json",
    "policy_issues",
    "policy_to_dict",
    "policy_to_json",
    "three_tier_policy",
    "validate_policy",
]
