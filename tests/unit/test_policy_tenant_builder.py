"""Unit tests for Tenant/NetworkPolicy containers and the PolicyBuilder."""

import pytest

from repro.exceptions import DuplicateObjectError, PolicyError, UnknownObjectError
from repro.policy import (
    EpgPair,
    NetworkPolicy,
    PolicyBuilder,
    PolicyIndex,
    Tenant,
    three_tier_policy,
    validate_policy,
)
from repro.policy.objects import Epg, Vrf


@pytest.fixture
def web_policy():
    builder, uids = three_tier_policy()
    builder.endpoint("EP1", uids["web"], switch="leaf-1")
    builder.endpoint("EP2", uids["app"], switch="leaf-2")
    builder.endpoint("EP3", uids["db"], switch="leaf-3")
    return builder.build(), uids


class TestTenant:
    def test_duplicate_uid_rejected(self):
        tenant = Tenant(name="t")
        tenant.add_vrf(Vrf(uid="vrf:t/a", name="a", scope_id=1))
        with pytest.raises(DuplicateObjectError):
            tenant.add_vrf(Vrf(uid="vrf:t/a", name="a", scope_id=2))

    def test_replace_unknown_epg_rejected(self):
        tenant = Tenant(name="t")
        with pytest.raises(UnknownObjectError):
            tenant.replace_epg(Epg(uid="epg:t/x", name="x", vrf_uid="v", epg_id=1))

    def test_object_count(self, web_policy):
        policy, _ = web_policy
        tenant = next(iter(policy.tenants.values()))
        assert tenant.object_count() == policy.object_count()


class TestNetworkPolicy:
    def test_lookup_and_contains(self, web_policy):
        policy, uids = web_policy
        assert uids["web"] in policy
        assert policy.get(uids["web"]).name == "Web"
        with pytest.raises(UnknownObjectError):
            policy.get("epg:webshop/nope")

    def test_summary_counts(self, web_policy):
        policy, _ = web_policy
        summary = policy.summary()
        assert summary["vrfs"] == 1
        assert summary["epgs"] == 3
        assert summary["contracts"] == 2
        assert summary["endpoints"] == 3

    # The dependency queries of Figure 1, answered by the policy's index.
    def test_epg_pairs_match_figure1(self, web_policy):
        policy, uids = web_policy
        pairs = PolicyIndex(policy).pairs
        assert len(pairs) == 2
        assert EpgPair(uids["web"], uids["app"]) in pairs
        assert EpgPair(uids["app"], uids["db"]) in pairs
        assert EpgPair(uids["web"], uids["db"]) not in pairs

    def test_shared_risks_for_pair(self, web_policy):
        policy, uids = web_policy
        index = PolicyIndex(policy)
        risks = index.risks_for_pair(EpgPair(uids["web"], uids["app"]))
        assert uids["vrf"] in risks
        assert uids["web"] in risks and uids["app"] in risks
        assert uids["web_app_contract"] in risks
        assert uids["filter_http"] in risks
        assert uids["app_db_contract"] not in risks

    def test_pairs_for_object(self, web_policy):
        policy, uids = web_policy
        index = PolicyIndex(policy)
        vrf_pairs = index.pairs_for_object(uids["vrf"])
        assert len(vrf_pairs) == 2
        filter_pairs = index.pairs_for_object(uids["filter_http"])
        assert len(filter_pairs) == 2  # port 80 allowed on both contracts

    def test_switch_queries(self, web_policy):
        policy, uids = web_policy
        index = PolicyIndex(policy)
        assert index.switches_for_epg(uids["web"]) == ["leaf-1"]
        s2_pairs = index.pairs_on_switch("leaf-2")
        assert set(s2_pairs) == {EpgPair(uids["web"], uids["app"]), EpgPair(uids["app"], uids["db"])}
        assert index.switches_for_pair(EpgPair(uids["web"], uids["app"])) == ["leaf-1", "leaf-2"]
        assert index.all_switches() == ["leaf-1", "leaf-2", "leaf-3"]

    def test_tenant_of(self, web_policy):
        policy, uids = web_policy
        assert policy.tenant_of(uids["web"]).name == "webshop"
        with pytest.raises(UnknownObjectError):
            policy.tenant_of("missing")

    def test_duplicate_tenant_rejected(self):
        policy = NetworkPolicy([Tenant(name="a")])
        with pytest.raises(DuplicateObjectError):
            policy.add_tenant(Tenant(name="a"))


class TestPolicyBuilder:
    def test_epg_requires_existing_vrf(self):
        builder = PolicyBuilder("t")
        with pytest.raises(UnknownObjectError):
            builder.epg("web", vrf="vrf:t/missing")

    def test_filter_requires_entries(self):
        builder = PolicyBuilder("t")
        with pytest.raises(PolicyError):
            builder.filter("empty", [])

    def test_contract_requires_existing_filters(self):
        builder = PolicyBuilder("t")
        with pytest.raises(UnknownObjectError):
            builder.contract("c", ["filter:t/missing"])

    def test_allow_with_raw_entries_creates_filter(self):
        builder = PolicyBuilder("t")
        vrf = builder.vrf("v")
        a = builder.epg("a", vrf)
        b = builder.epg("b", vrf)
        contract = builder.allow(a, b, entries=[("tcp", 443)])
        policy = builder.build()
        assert contract in policy
        assert policy.summary()["filters"] == 1
        assert PolicyIndex(policy).pairs == [EpgPair(a, b)]

    def test_allow_requires_filters_or_entries(self):
        builder = PolicyBuilder("t")
        vrf = builder.vrf("v")
        a = builder.epg("a", vrf)
        b = builder.epg("b", vrf)
        with pytest.raises(PolicyError):
            builder.allow(a, b)

    def test_filter_entry_coercion_from_int(self):
        builder = PolicyBuilder("t")
        flt = builder.filter("ssh", [22])
        policy = builder.build()
        entries = policy.get(flt).entries
        assert entries[0].protocol == "tcp"
        assert entries[0].port == 22

    def test_attach_endpoint(self):
        builder = PolicyBuilder("t")
        vrf = builder.vrf("v")
        a = builder.epg("a", vrf)
        ep = builder.endpoint("e1", a)
        builder.attach(ep, "leaf-9")
        policy = builder.build()
        assert policy.get(ep).switch_uid == "leaf-9"

    def test_three_tier_policy_is_valid(self):
        builder, _ = three_tier_policy()
        validate_policy(builder.build())

    def test_builder_generated_ids_are_unique(self):
        builder = PolicyBuilder("t")
        vrf = builder.vrf("v")
        ids = {builder.tenant.epgs[builder.epg(f"e{i}", vrf)].epg_id for i in range(20)}
        assert len(ids) == 20
