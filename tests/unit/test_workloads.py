"""Unit tests for workload profiles, the synthetic generator and the scenarios."""

from collections import Counter

import pytest

from repro.fabric import FaultCode
from repro.policy import PolicyIndex, validate_policy
from repro.policy.objects import ObjectType
from repro.policy.graph import epg_pairs_per_object
from repro.verify import EquivalenceChecker
from repro.workloads import (
    WorkloadProfile,
    generate_workload,
    large_unresponsive_switch_scenario,
    production_cluster_profile,
    scaled_profile,
    simulation_profile,
    tcam_overflow_scenario,
    testbed_profile as make_testbed_profile,
    three_tier_scenario,
    unresponsive_switch_scenario,
)


class TestProfiles:
    def test_paper_profile_counts(self):
        profile = production_cluster_profile()
        assert profile.num_leaves == 30
        assert profile.num_vrfs == 6
        assert profile.num_epgs == 615
        assert profile.num_contracts == 386
        assert profile.num_filters == 160

    def test_testbed_profile_counts(self):
        profile = make_testbed_profile()
        assert (profile.num_epgs, profile.num_contracts, profile.num_filters) == (36, 24, 9)
        assert profile.target_pairs == 100

    def test_degenerate_profile_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", num_leaves=0, num_spines=1, num_vrfs=1,
                            num_epgs=4, num_contracts=1, num_filters=1, target_pairs=1)

    def test_scaled_profile_grows_with_leaves(self):
        base = simulation_profile()
        scaled = scaled_profile(base, num_leaves=100, pairs_per_leaf=20)
        assert scaled.num_leaves == 100
        assert scaled.target_pairs == 2000
        assert scaled.num_epgs >= base.num_epgs
        assert scaled.name.endswith("x100")


class TestGenerator:
    def test_generated_policy_is_valid_and_sized(self, tiny_workload):
        policy = tiny_workload.policy
        validate_policy(policy)
        summary = tiny_workload.summary()
        assert summary["epgs"] == tiny_workload.profile.num_epgs
        assert summary["epg_pairs"] >= tiny_workload.profile.target_pairs
        assert summary["endpoints"] >= tiny_workload.profile.num_epgs

    def test_generation_is_deterministic(self, tiny_profile):
        a = generate_workload(tiny_profile)
        b = generate_workload(tiny_profile)
        assert a.summary() == b.summary()
        assert [ep.switch_uid for ep in a.policy.endpoints()] == [
            ep.switch_uid for ep in b.policy.endpoints()
        ]

    def test_different_seed_changes_policy(self, tiny_profile):
        a = generate_workload(tiny_profile, seed=1)
        b = generate_workload(tiny_profile, seed=2)
        assert a.summary() != b.summary() or [
            ep.switch_uid for ep in a.policy.endpoints()
        ] != [ep.switch_uid for ep in b.policy.endpoints()]

    def test_all_endpoints_attached(self, tiny_workload):
        assert all(ep.switch_uid is not None for ep in tiny_workload.policy.endpoints())
        assert set(tiny_workload.fabric.leaf_uids()) >= {
            ep.switch_uid for ep in tiny_workload.policy.endpoints()
        }

    def test_pairs_are_same_vrf(self, tiny_workload):
        policy = tiny_workload.policy
        index = PolicyIndex(policy)
        for pair in index.pairs:
            assert index.epg(pair.first).vrf_uid == index.epg(pair.second).vrf_uid

    def test_sharing_structure_is_heavy_tailed(self):
        """VRFs must be shared by far more pairs than contracts/filters (Fig. 3 shape)."""
        workload = generate_workload(simulation_profile())
        counts = epg_pairs_per_object(workload.policy)
        vrf_max = max(counts[ObjectType.VRF].values())
        filter_median = sorted(counts[ObjectType.FILTER].values())[
            len(counts[ObjectType.FILTER]) // 2
        ]
        assert vrf_max > 100
        assert vrf_max > 10 * max(1, filter_median)


class TestScenarios:
    def test_three_tier_scenario_deploys_consistently(self):
        scenario = three_tier_scenario()
        checker = EquivalenceChecker()
        report = checker.check_network(
            scenario.controller.logical_rules(),
            scenario.controller.collect_deployed_rules(),
        )
        assert report.equivalent

    def test_tcam_overflow_scenario_produces_overflow(self):
        scenario = tcam_overflow_scenario(tcam_capacity=8, extra_filters=8)
        assert scenario.facts["overflow_switches"]
        fault_codes = {record.code for record in scenario.fabric.fault_records()}
        assert FaultCode.TCAM_OVERFLOW in fault_codes
        # The overflow leaves missing rules behind.
        checker = EquivalenceChecker()
        report = checker.check_network(
            scenario.controller.logical_rules(),
            scenario.controller.collect_deployed_rules(),
        )
        assert report.total_missing() > 0

    def test_unresponsive_switch_scenario_localizes_to_victim(self):
        scenario = unresponsive_switch_scenario(extra_filters=4)
        victim = scenario.facts["unresponsive_switch"]
        checker = EquivalenceChecker()
        report = checker.check_network(
            scenario.controller.logical_rules(),
            scenario.controller.collect_deployed_rules(),
        )
        assert victim in report.switches_with_violations()
        # The controller recorded the unreachable switch.
        assert any(r.code is FaultCode.SWITCH_UNREACHABLE for r in scenario.controller.fault_log)

    def test_large_unresponsive_scenario_many_missing_rules(self, tiny_profile):
        scenario = large_unresponsive_switch_scenario(profile=tiny_profile)
        victim = scenario.facts["unresponsive_switch"]
        checker = EquivalenceChecker()
        report = checker.check_network(
            scenario.controller.logical_rules(),
            scenario.controller.collect_deployed_rules(),
        )
        assert victim in report.switches_with_violations()
        assert report.results[victim].missing_count() > 10

    def test_large_unresponsive_victim_is_the_first_busiest_leaf(self, tiny_profile):
        # Seed 22 attaches as many endpoints to leaf-2 as to leaf-3: the tie
        # goes to the uid that sorts first.
        scenario = large_unresponsive_switch_scenario(profile=tiny_profile, seed=22)
        per_leaf = Counter(
            endpoint.switch_uid
            for endpoint in scenario.policy.endpoints()
            if endpoint.switch_uid is not None
        )
        most = max(per_leaf.values())
        tied = sorted(uid for uid, count in per_leaf.items() if count == most)
        assert tied == ["leaf-2", "leaf-3"]
        assert scenario.facts["unresponsive_switch"] == "leaf-2"
