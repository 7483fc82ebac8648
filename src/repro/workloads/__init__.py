"""Synthetic workloads: profiles, the policy generator and scenario builders."""

from .churn_profiles import (
    CHURN_EVENT_KINDS,
    ChurnMix,
    ChurnProfile,
    churn_profile_for,
    churn_profile_names,
)
from .generator import GeneratedWorkload, generate_policy, generate_workload
from .profiles import (
    WorkloadProfile,
    datacenter_profile,
    production_cluster_profile,
    profile_names,
    resolve_profile,
    scaled_profile,
    simulation_profile,
    small_profile,
    testbed_profile,
)
from .scenarios import (
    Scenario,
    deploy_profile,
    large_unresponsive_switch_scenario,
    tcam_overflow_scenario,
    three_tier_scenario,
    unresponsive_switch_scenario,
)

__all__ = [
    "CHURN_EVENT_KINDS",
    "ChurnMix",
    "ChurnProfile",
    "GeneratedWorkload",
    "Scenario",
    "WorkloadProfile",
    "churn_profile_for",
    "churn_profile_names",
    "datacenter_profile",
    "deploy_profile",
    "generate_policy",
    "generate_workload",
    "large_unresponsive_switch_scenario",
    "production_cluster_profile",
    "profile_names",
    "resolve_profile",
    "scaled_profile",
    "simulation_profile",
    "small_profile",
    "tcam_overflow_scenario",
    "testbed_profile",
    "three_tier_scenario",
    "unresponsive_switch_scenario",
]
