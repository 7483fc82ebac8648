"""Synthetic policy generator.

Builds a :class:`~repro.policy.tenant.NetworkPolicy` (plus a matching
:class:`~repro.fabric.fabric.Fabric`) from a :class:`WorkloadProfile`.  The
generator's goal is not to invent traffic but to reproduce the *sharing
structure* the paper measured on its production cluster (Figure 3):

* a few VRFs scope most EPGs, so a VRF is shared by a huge number of EPG
  pairs;
* EPG popularity is heavy-tailed — some application tiers talk to hundreds
  of others, many talk to a handful;
* contracts and filters are mostly local glue, shared by few pairs, with a
  small popular tail (the "http allow" style filters reused everywhere).

Those properties are produced by (i) skewed VRF sizes, (ii) Zipf-like EPG
popularity when sampling pairs and (iii) bounded contract reuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import WorkloadError
from ..fabric.fabric import Fabric
from ..fabric.topology import LeafSpineTopology
from ..policy.builder import PolicyBuilder
from ..policy.graph import PolicyIndex
from ..policy.objects import EpgPair
from ..policy.tenant import NetworkPolicy
from ..policy.validation import validate_policy
from .profiles import WorkloadProfile

__all__ = ["GeneratedWorkload", "generate_policy", "generate_workload"]

#: Ports drawn for filter entries: a few very common services plus a random tail.
_COMMON_PORTS = [80, 443, 22, 53, 3306, 5432, 8080, 8443, 6379, 9092]


@dataclass
class GeneratedWorkload:
    """A generated policy together with the fabric it is attached to."""

    profile: WorkloadProfile
    policy: NetworkPolicy
    fabric: Fabric
    builder: PolicyBuilder
    #: uid lists per object kind, for convenience in tests and experiments.
    vrf_uids: List[str] = field(default_factory=list)
    epg_uids: List[str] = field(default_factory=list)
    contract_uids: List[str] = field(default_factory=list)
    filter_uids: List[str] = field(default_factory=list)
    endpoint_uids: List[str] = field(default_factory=list)

    def summary(self) -> Dict[str, int]:
        return {
            **self.policy.summary(),
            "epg_pairs": len(PolicyIndex(self.policy).pairs),
            "leaves": len(self.fabric.leaf_uids()),
        }


def _zipf_weights(count: int, skew: float) -> List[float]:
    """Weights proportional to ``1 / rank**skew`` (uniform when skew == 0)."""
    if skew <= 0:
        return [1.0] * count
    return [1.0 / (rank ** skew) for rank in range(1, count + 1)]


def _sample_range(rng: random.Random, bounds: Tuple[int, int]) -> int:
    low, high = bounds
    if low > high:
        raise WorkloadError(f"invalid range {bounds}")
    return rng.randint(low, high)


def generate_policy(
    profile: WorkloadProfile,
    rng: Optional[random.Random] = None,
) -> Tuple[PolicyBuilder, Dict[str, List[str]]]:
    """Generate the policy objects and relations for ``profile``.

    Returns the builder (so callers can keep mutating the policy, e.g. the
    use-case scenarios) and a dictionary of created uids per object kind.
    """
    rng = rng or random.Random(profile.seed)
    builder = PolicyBuilder(tenant=profile.name)

    # --- VRFs ----------------------------------------------------------- #
    vrf_uids = [builder.vrf(f"vrf-{i + 1}", scope_id=100 + i) for i in range(profile.num_vrfs)]
    vrf_weights = _zipf_weights(profile.num_vrfs, profile.vrf_size_skew)

    # --- EPGs ------------------------------------------------------------ #
    epg_uids: List[str] = []
    epg_vrf: Dict[str, str] = {}
    for i in range(profile.num_epgs):
        vrf_uid = rng.choices(vrf_uids, weights=vrf_weights, k=1)[0]
        epg_uid = builder.epg(f"epg-{i + 1}", vrf=vrf_uid)
        epg_uids.append(epg_uid)
        epg_vrf[epg_uid] = vrf_uid

    # --- Filters ---------------------------------------------------------- #
    filter_uids: List[str] = []
    for i in range(profile.num_filters):
        entries = []
        for _ in range(_sample_range(rng, profile.entries_per_filter)):
            if rng.random() < 0.7:
                port = rng.choice(_COMMON_PORTS)
            else:
                port = rng.randint(1024, 49151)
            protocol = "tcp" if rng.random() < 0.85 else "udp"
            entries.append((protocol, port))
        filter_uids.append(builder.filter(f"filter-{i + 1}", entries))

    # --- Contracts --------------------------------------------------------- #
    contract_uids: List[str] = []
    filter_weights = _zipf_weights(profile.num_filters, 1.0)
    for i in range(profile.num_contracts):
        count = min(_sample_range(rng, profile.filters_per_contract), profile.num_filters)
        chosen: List[str] = []
        while len(chosen) < count:
            candidate = rng.choices(filter_uids, weights=filter_weights, k=1)[0]
            if candidate not in chosen:
                chosen.append(candidate)
        contract_uids.append(builder.contract(f"contract-{i + 1}", chosen))

    # --- EPG pairs (provide/consume relations) ----------------------------- #
    epgs_by_vrf: Dict[str, List[str]] = {}
    for epg_uid, vrf_uid in epg_vrf.items():
        epgs_by_vrf.setdefault(vrf_uid, []).append(epg_uid)

    epg_weights = _zipf_weights(profile.num_epgs, profile.epg_popularity_skew)
    weight_of = {uid: epg_weights[i] for i, uid in enumerate(epg_uids)}

    # Contract reuse is restricted to one VRF: reusing a contract across VRFs
    # would create provide/consume relations that whitelist nothing (pairs are
    # same-VRF scoped), wasting policy objects.  Because a contract with many
    # consumers and providers implies the full bipartite product of pairs, the
    # generator tracks the *actual* pair count incrementally and stops once
    # the target is reached.
    used_contracts_by_vrf: Dict[str, List[str]] = {}
    unused_contracts = list(contract_uids)
    rng.shuffle(unused_contracts)
    contract_consumers: Dict[str, set[str]] = {uid: set() for uid in contract_uids}
    contract_providers: Dict[str, set[str]] = {uid: set() for uid in contract_uids}
    pairs_created: set[EpgPair] = set()
    attempts = 0
    max_attempts = profile.target_pairs * 30
    while len(pairs_created) < profile.target_pairs and attempts < max_attempts:
        attempts += 1
        consumer = rng.choices(epg_uids, weights=epg_weights, k=1)[0]
        vrf_uid = epg_vrf[consumer]
        vrf_members = epgs_by_vrf[vrf_uid]
        if len(vrf_members) < 2:
            continue
        member_weights = [weight_of[uid] for uid in vrf_members]
        provider = rng.choices(vrf_members, weights=member_weights, k=1)[0]
        if provider == consumer:
            continue
        pair = EpgPair(consumer, provider)
        if pair in pairs_created:
            continue
        # Pick the contract gluing this pair together (reuse stays in-VRF).
        reusable = used_contracts_by_vrf.get(vrf_uid, [])
        if reusable and (
            not unused_contracts or rng.random() < profile.contract_reuse_probability
        ):
            contract_uid = rng.choice(reusable)
        else:
            if not unused_contracts:
                contract_uid = rng.choice(reusable) if reusable else None
            else:
                contract_uid = unused_contracts.pop()
                used_contracts_by_vrf.setdefault(vrf_uid, []).append(contract_uid)
        if contract_uid is None:
            continue
        builder.consume(consumer, contract_uid)
        builder.provide(provider, contract_uid)
        # Account for every pair the new relations imply (bipartite product).
        new_consumers = contract_consumers[contract_uid] | {consumer}
        new_providers = contract_providers[contract_uid] | {provider}
        for c_uid in new_consumers:
            for p_uid in new_providers:
                if c_uid != p_uid:
                    pairs_created.add(EpgPair(c_uid, p_uid))
        contract_consumers[contract_uid] = new_consumers
        contract_providers[contract_uid] = new_providers

    if len(pairs_created) < profile.target_pairs * 0.5:
        raise WorkloadError(
            f"generator produced only {len(pairs_created)} of {profile.target_pairs} "
            f"target pairs for profile {profile.name!r}"
        )

    # --- Endpoints ----------------------------------------------------------- #
    endpoint_uids: List[str] = []
    counter = 0
    for epg_uid in epg_uids:
        for _ in range(_sample_range(rng, profile.endpoints_per_epg)):
            counter += 1
            endpoint_uids.append(
                builder.endpoint(
                    f"ep-{counter}",
                    epg_uid,
                    ip=f"10.{(counter >> 16) & 255}.{(counter >> 8) & 255}.{counter & 255}",
                )
            )

    uids = {
        "vrfs": vrf_uids,
        "epgs": epg_uids,
        "contracts": contract_uids,
        "filters": filter_uids,
        "endpoints": endpoint_uids,
    }
    return builder, uids


def _attach_endpoints(
    policy: NetworkPolicy,
    fabric: Fabric,
    profile: WorkloadProfile,
    rng: random.Random,
) -> None:
    """Attach each EPG's endpoints to a small random set of leaves.

    Endpoints of one EPG are co-located on ``switches_per_epg`` leaves, which
    is what makes a single switch carry thousands of EPG pairs in the
    production-cluster study.
    """
    leaves = fabric.leaf_uids()
    endpoints_by_epg: Dict[str, List[str]] = {}
    for endpoint in policy.endpoints():
        endpoints_by_epg.setdefault(endpoint.epg_uid, []).append(endpoint.uid)
    for epg_uid, endpoint_uids in endpoints_by_epg.items():
        spread = min(len(leaves), _sample_range(rng, profile.switches_per_epg))
        chosen_leaves = rng.sample(leaves, spread)
        for i, endpoint_uid in enumerate(endpoint_uids):
            fabric.attach_endpoint(policy, endpoint_uid, chosen_leaves[i % spread])


def generate_workload(
    profile: WorkloadProfile,
    seed: Optional[int] = None,
    tcam_capacity: Optional[int] = None,
    validate: bool = True,
) -> GeneratedWorkload:
    """Generate policy + fabric + endpoint placement for ``profile``."""
    rng = random.Random(profile.seed if seed is None else seed)
    builder, uids = generate_policy(profile, rng=rng)
    policy = builder.build()
    topology = LeafSpineTopology.build(profile.num_leaves, profile.num_spines)
    fabric = Fabric(topology=topology, tcam_capacity=tcam_capacity)
    _attach_endpoints(policy, fabric, profile, rng)
    if validate:
        validate_policy(policy)
    return GeneratedWorkload(
        profile=profile,
        policy=policy,
        fabric=fabric,
        builder=builder,
        vrf_uids=uids["vrfs"],
        epg_uids=uids["epgs"],
        contract_uids=uids["contracts"],
        filter_uids=uids["filters"],
        endpoint_uids=uids["endpoints"],
    )
