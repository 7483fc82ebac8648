"""Workload profiles.

A profile captures the knobs of the synthetic policy generator: how many
switches, VRFs, EPGs, contracts and filters to create, how endpoints are
spread over EPGs and leaves, and how skewed the sharing between EPG pairs
and objects should be.  Three families of profiles are provided:

* ``production_cluster_profile`` — matches the object counts the paper
  reports for its production cluster (≈30 switches, 6 VRFs, 615 EPGs,
  386 contracts, 160 filters, hundreds of servers) and a heavy-tailed
  sharing structure that reproduces the shape of Figure 3;
* ``simulation_profile`` — a scaled-down version of the cluster used by the
  accuracy experiments (Figures 8 and 9), keeping the same sharing shape but
  small enough that hundreds of localization runs finish quickly;
* ``testbed_profile`` — the small testbed policy of §VI-A (36 EPGs,
  24 contracts, 9 filters, ≈100 EPG pairs) with its characteristic *low*
  degree of risk sharing;
* ``datacenter_profile`` — the scalability experiment's fabric (§VI-D
  scales the risk model to 500+ switches): hundreds of leaves with
  production-like sharing and thin per-leaf rule sets.  This is the
  workload the sharded parallel verification engine is benchmarked on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "WorkloadProfile",
    "datacenter_profile",
    "production_cluster_profile",
    "profile_names",
    "resolve_profile",
    "simulation_profile",
    "small_profile",
    "testbed_profile",
    "scaled_profile",
]


@dataclass(frozen=True)
class WorkloadProfile:
    """All parameters of one synthetic workload."""

    name: str
    num_leaves: int
    num_spines: int
    num_vrfs: int
    num_epgs: int
    num_contracts: int
    num_filters: int
    target_pairs: int
    #: Endpoints per EPG, inclusive range.
    endpoints_per_epg: Tuple[int, int] = (1, 3)
    #: Leaves each EPG's endpoints are spread over, inclusive range.
    switches_per_epg: Tuple[int, int] = (1, 2)
    #: Filter entries per filter, inclusive range.
    entries_per_filter: Tuple[int, int] = (1, 2)
    #: Filters per contract, inclusive range.
    filters_per_contract: Tuple[int, int] = (1, 3)
    #: Zipf-like skew of EPG popularity when forming pairs (0 = uniform).
    epg_popularity_skew: float = 1.0
    #: Zipf-like skew of VRF sizes (how unevenly EPGs spread over VRFs).
    vrf_size_skew: float = 1.2
    #: Probability that a new EPG pair reuses an already-used contract.
    contract_reuse_probability: float = 0.55
    #: Default RNG seed for reproducibility.
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.num_leaves <= 0 or self.num_vrfs <= 0 or self.num_epgs < 2:
            raise ValueError(f"profile {self.name!r} has degenerate sizes")
        if self.num_contracts <= 0 or self.num_filters <= 0 or self.target_pairs <= 0:
            raise ValueError(f"profile {self.name!r} has degenerate policy sizes")


def production_cluster_profile(seed: int = 2018) -> WorkloadProfile:
    """The paper's production cluster (§VI-A): full scale, used for Figure 3."""
    return WorkloadProfile(
        name="production-cluster",
        num_leaves=30,
        num_spines=4,
        num_vrfs=6,
        num_epgs=615,
        num_contracts=386,
        num_filters=160,
        target_pairs=18_000,
        endpoints_per_epg=(1, 3),
        switches_per_epg=(1, 3),
        epg_popularity_skew=1.1,
        vrf_size_skew=1.4,
        contract_reuse_probability=0.65,
        seed=seed,
    )


def simulation_profile(seed: int = 2018) -> WorkloadProfile:
    """Scaled-down cluster with the same sharing shape, for the accuracy sweeps."""
    return WorkloadProfile(
        name="simulation",
        num_leaves=10,
        num_spines=2,
        num_vrfs=4,
        num_epgs=120,
        num_contracts=90,
        num_filters=40,
        target_pairs=1_500,
        endpoints_per_epg=(1, 3),
        switches_per_epg=(1, 2),
        epg_popularity_skew=1.0,
        vrf_size_skew=1.2,
        contract_reuse_probability=0.6,
        seed=seed,
    )


def small_profile(seed: int = 2018) -> WorkloadProfile:
    """A deliberately small demo profile for the service daemon and CI smoke.

    Big enough to produce a multi-leaf fabric with shared policy objects (so
    audits and incidents are non-trivial), small enough that generate +
    deploy + monitor bootstrap + a parallel audit all finish in seconds —
    the workload ``python -m repro.service --profile small`` boots on.
    """
    return WorkloadProfile(
        name="small",
        num_leaves=4,
        num_spines=2,
        num_vrfs=2,
        num_epgs=20,
        num_contracts=12,
        num_filters=8,
        target_pairs=48,
        endpoints_per_epg=(1, 2),
        switches_per_epg=(1, 2),
        epg_popularity_skew=0.8,
        vrf_size_skew=1.0,
        contract_reuse_probability=0.5,
        seed=seed,
    )


def testbed_profile(seed: int = 2018) -> WorkloadProfile:
    """The small testbed policy of §VI-A with its low degree of risk sharing."""
    return WorkloadProfile(
        name="testbed",
        num_leaves=6,
        num_spines=2,
        num_vrfs=2,
        num_epgs=36,
        num_contracts=24,
        num_filters=9,
        target_pairs=100,
        endpoints_per_epg=(1, 2),
        switches_per_epg=(1, 2),
        epg_popularity_skew=0.6,
        vrf_size_skew=0.8,
        contract_reuse_probability=0.5,
        seed=seed,
    )


def datacenter_profile(seed: int = 2018, num_leaves: int = 512) -> WorkloadProfile:
    """A 500+-switch datacenter fabric for the parallel verification path.

    The paper's scalability experiment (§VI-D) grows the controller risk
    model to 500 switches; this profile is the matching *fabric*: hundreds
    of leaves, a policy that scales with them, and thin per-leaf rule sets
    (~100-300 rules) — many cheap per-switch checks, the shape the warm
    worker pool's sharding and memoization are built for.
    """
    if num_leaves < 500:
        raise ValueError(f"datacenter profile needs >= 500 leaves, got {num_leaves}")
    return WorkloadProfile(
        name=f"datacenter-{num_leaves}",
        num_leaves=num_leaves,
        num_spines=16,
        num_vrfs=24,
        num_epgs=12 * num_leaves,
        num_contracts=9 * num_leaves,
        num_filters=480,
        target_pairs=12 * num_leaves,
        endpoints_per_epg=(1, 2),
        switches_per_epg=(1, 2),
        epg_popularity_skew=1.0,
        vrf_size_skew=1.2,
        contract_reuse_probability=0.6,
        seed=seed,
    )


#: CLI/service name → profile builder.  Every builder accepts ``seed``.
_PROFILE_BUILDERS = {
    "small": small_profile,
    "testbed": testbed_profile,
    "simulation": simulation_profile,
    "production": production_cluster_profile,
    "datacenter": datacenter_profile,
}


def profile_names() -> List[str]:
    """The short names :func:`resolve_profile` accepts (CLI/service surface)."""
    return sorted(_PROFILE_BUILDERS)


def resolve_profile(name: str, seed: Optional[int] = None) -> WorkloadProfile:
    """Look up a workload profile by its short CLI name.

    Raises :class:`ValueError` listing the known names, so callers (the
    daemon's argument parser, the audit CLI) can surface it directly.
    """
    builder = _PROFILE_BUILDERS.get(name)
    if builder is None:
        known = ", ".join(profile_names())
        raise ValueError(f"unknown workload profile {name!r} (known: {known})")
    return builder() if seed is None else builder(seed=seed)


def scaled_profile(
    base: WorkloadProfile,
    num_leaves: int,
    name: str | None = None,
    pairs_per_leaf: int | None = None,
    seed: int | None = None,
) -> WorkloadProfile:
    """Scale a profile to a different fabric size (for the scalability study).

    The policy grows proportionally with the number of leaves: EPGs,
    contracts, filters and target pairs are all scaled by
    ``num_leaves / base.num_leaves`` (at least their base values), which is
    how the paper scales the controller risk model "by adding new EPG and
    switch pairs".
    """
    factor = max(1.0, num_leaves / base.num_leaves)
    target_pairs = (
        num_leaves * pairs_per_leaf
        if pairs_per_leaf is not None
        else int(base.target_pairs * factor)
    )
    return WorkloadProfile(
        name=name or f"{base.name}-x{num_leaves}",
        num_leaves=num_leaves,
        num_spines=base.num_spines,
        num_vrfs=max(base.num_vrfs, int(base.num_vrfs * factor ** 0.5)),
        num_epgs=max(base.num_epgs, int(base.num_epgs * factor)),
        num_contracts=max(base.num_contracts, int(base.num_contracts * factor)),
        num_filters=max(base.num_filters, int(base.num_filters * factor ** 0.5)),
        target_pairs=target_pairs,
        endpoints_per_epg=base.endpoints_per_epg,
        switches_per_epg=base.switches_per_epg,
        entries_per_filter=base.entries_per_filter,
        filters_per_contract=base.filters_per_contract,
        epg_popularity_skew=base.epg_popularity_skew,
        vrf_size_skew=base.vrf_size_skew,
        contract_reuse_probability=base.contract_reuse_probability,
        seed=base.seed if seed is None else seed,
    )
