"""Unit tests for PolicyIndex, the dependency graph and validation."""

import pytest

from repro.exceptions import ValidationError
from repro.policy import (
    PolicyIndex,
    epg_pairs_per_object,
    policy_issues,
    three_tier_policy,
    validate_policy,
)
from repro.policy.objects import Contract, Epg, Filter, ObjectType, Vrf
from repro.policy.tenant import NetworkPolicy, Tenant


@pytest.fixture
def web_policy():
    builder, uids = three_tier_policy()
    builder.endpoint("EP1", uids["web"], switch="leaf-1")
    builder.endpoint("EP2", uids["app"], switch="leaf-2")
    builder.endpoint("EP3", uids["db"], switch="leaf-3")
    return builder.build(), uids


class TestPolicyIndex:
    def test_pairs_for_object_includes_switches(self, web_policy):
        policy, uids = web_policy
        index = PolicyIndex(policy)
        assert len(index.pairs_for_object("leaf-2")) == 2
        assert len(index.pairs_for_object(uids["vrf"])) == 2

    def test_object_types_map(self, web_policy):
        policy, uids = web_policy
        index = PolicyIndex(policy)
        types = index.object_types()
        assert types[uids["vrf"]] is ObjectType.VRF
        assert types["leaf-1"] is ObjectType.SWITCH

    def test_index_consistent_on_generated_workload(self, tiny_workload):
        index = PolicyIndex(tiny_workload.policy)
        # Every pair's risks must include both EPGs and their VRF.
        for pair in index.pairs[:50]:
            risks = set(index.risks_for_pair(pair))
            assert pair.first in risks and pair.second in risks
            assert index.epg(pair.first).vrf_uid in risks

    def test_pairs_for_object_is_inverse_of_risks_for_pair(self, tiny_workload):
        index = PolicyIndex(tiny_workload.policy)
        for pair in index.pairs[:30]:
            for risk in index.risks_for_pair(pair):
                assert pair in index.pairs_for_object(risk)


class TestDependencyGraph:
    def test_epg_pairs_per_object_series(self, web_policy):
        policy, uids = web_policy
        counts = epg_pairs_per_object(policy)
        assert counts[ObjectType.VRF][uids["vrf"]] == 2
        assert counts[ObjectType.EPG][uids["app"]] == 2
        assert counts[ObjectType.EPG][uids["web"]] == 1
        assert counts[ObjectType.SWITCH]["leaf-2"] == 2


class TestValidation:
    def test_valid_policy_has_no_issues(self, web_policy):
        policy, _ = web_policy
        assert policy_issues(policy) == []
        validate_policy(policy)

    def _tenant_with(self, **objects):
        tenant = Tenant(name="t")
        for vrf in objects.get("vrfs", []):
            tenant.add_vrf(vrf)
        for epg in objects.get("epgs", []):
            tenant.add_epg(epg)
        for contract in objects.get("contracts", []):
            tenant.add_contract(contract)
        for flt in objects.get("filters", []):
            tenant.add_filter(flt)
        return NetworkPolicy([tenant])

    def test_epg_with_unknown_vrf_flagged(self):
        policy = self._tenant_with(
            epgs=[Epg(uid="epg:t/a", name="a", vrf_uid="vrf:t/missing", epg_id=1)]
        )
        issues = policy_issues(policy)
        assert any("unknown VRF" in issue for issue in issues)
        with pytest.raises(ValidationError):
            validate_policy(policy)

    def test_contract_without_filters_flagged(self):
        policy = self._tenant_with(contracts=[Contract(uid="contract:t/c", name="c")])
        assert any("no filters" in issue for issue in policy_issues(policy))

    def test_duplicate_epg_id_in_vrf_flagged(self):
        vrf = Vrf(uid="vrf:t/v", name="v", scope_id=1)
        policy = self._tenant_with(
            vrfs=[vrf],
            epgs=[
                Epg(uid="epg:t/a", name="a", vrf_uid=vrf.uid, epg_id=7),
                Epg(uid="epg:t/b", name="b", vrf_uid=vrf.uid, epg_id=7),
            ],
        )
        assert any("reused inside VRF" in issue for issue in policy_issues(policy))

    def test_duplicate_vrf_scope_flagged(self):
        policy = self._tenant_with(
            vrfs=[
                Vrf(uid="vrf:t/a", name="a", scope_id=5),
                Vrf(uid="vrf:t/b", name="b", scope_id=5),
            ]
        )
        assert any("scope id 5 reused" in issue for issue in policy_issues(policy))

    def test_filter_without_entries_flagged(self):
        policy = self._tenant_with(filters=[Filter(uid="filter:t/f", name="f", entries=())])
        assert any("no entries" in issue for issue in policy_issues(policy))

    def test_validation_error_carries_all_issues(self):
        policy = self._tenant_with(
            contracts=[Contract(uid="contract:t/c", name="c")],
            filters=[Filter(uid="filter:t/f", name="f", entries=())],
        )
        with pytest.raises(ValidationError) as excinfo:
            validate_policy(policy)
        assert len(excinfo.value.issues) == 2
