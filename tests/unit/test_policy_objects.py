"""Unit tests for the policy object model (repro.policy.objects)."""

import pytest

from repro.policy.objects import (
    ANY_PORT,
    Contract,
    Endpoint,
    Epg,
    EpgPair,
    Filter,
    FilterEntry,
    ObjectType,
    Vrf,
)
from repro.policy.graph import PolicyIndex
from repro.policy.tenant import NetworkPolicy, Tenant


class TestFilterEntry:
    def test_valid_entry(self):
        entry = FilterEntry(protocol="tcp", port=80)
        assert entry.describe() == "tcp/80"

    def test_any_port(self):
        entry = FilterEntry(protocol="udp", port=ANY_PORT)
        assert entry.port is None
        assert entry.describe() == "udp/any"

    def test_port_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FilterEntry(protocol="tcp", port=70000)

    def test_negative_port_rejected(self):
        with pytest.raises(ValueError):
            FilterEntry(protocol="tcp", port=-1)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            FilterEntry(protocol="sctp", port=80)

    def test_entries_are_hashable_and_ordered(self):
        a = FilterEntry("tcp", 80)
        b = FilterEntry("tcp", 443)
        assert len({a, b, FilterEntry("tcp", 80)}) == 2
        assert sorted([b, a])[0] == a


class TestPolicyObjects:
    def test_vrf_type_and_str(self):
        vrf = Vrf(uid="vrf:t/prod", name="prod", scope_id=101)
        assert vrf.object_type is ObjectType.VRF
        assert str(vrf) == "vrf:prod"

    def test_filter_entries_coerced_to_tuple(self):
        flt = Filter(uid="filter:t/http", name="http", entries=[FilterEntry("tcp", 80)])
        assert isinstance(flt.entries, tuple)
        assert flt.describe() == "tcp/80"

    def test_contract_filter_uids_coerced_to_tuple(self):
        contract = Contract(uid="contract:t/c", name="c", filter_uids=["filter:t/http"])
        assert isinstance(contract.filter_uids, tuple)
        assert contract.object_type is ObjectType.CONTRACT

    def test_epg_relations_coerced_to_frozenset(self):
        epg = Epg(uid="epg:t/web", name="web", vrf_uid="vrf:t/prod", epg_id=1,
                  provides=["contract:t/c"], consumes=["contract:t/d"])
        assert isinstance(epg.provides, frozenset)

    def test_endpoint_attached_to_returns_copy(self):
        ep = Endpoint(uid="endpoint:t/e1", name="e1", epg_uid="epg:t/web")
        attached = ep.attached_to("leaf-1")
        assert ep.switch_uid is None
        assert attached.switch_uid == "leaf-1"
        assert attached.uid == ep.uid


class TestEpgPair:
    def test_pair_is_unordered(self):
        assert EpgPair("a", "b") == EpgPair("b", "a")
        assert hash(EpgPair("a", "b")) == hash(EpgPair("b", "a"))

    def test_pair_members(self):
        pair = EpgPair("epg:t/web", "epg:t/app")
        assert pair.first == "epg:t/app"
        assert pair.second == "epg:t/web"

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            EpgPair("a", "a")


class TestPairsFromEpgs:
    """Which EPGs pair up, as the policy's index derives it."""

    def _epg(self, name, vrf="vrf:t/v1", provides=(), consumes=()):
        return Epg(
            uid=f"epg:t/{name}", name=name, vrf_uid=vrf, epg_id=hash(name) % 1000,
            provides=frozenset(provides), consumes=frozenset(consumes),
        )

    def _pairs(self, *epgs):
        tenant = Tenant(name="t")
        for scope, uid in enumerate(("vrf:t/v1", "vrf:t/v2"), start=1):
            tenant.add_vrf(Vrf(uid=uid, name=uid, scope_id=scope))
        tenant.add_filter(Filter(uid="filter:t/f", name="f", entries=(FilterEntry("tcp", 80),)))
        tenant.add_contract(Contract(uid="contract:t/c", name="c", filter_uids=("filter:t/f",)))
        for epg in epgs:
            tenant.add_epg(epg)
        return PolicyIndex(NetworkPolicy([tenant])).pairs

    def test_pair_requires_matching_contract(self):
        web = self._epg("web", consumes={"contract:t/c"})
        app = self._epg("app", provides={"contract:t/c"})
        db = self._epg("db")
        pairs = self._pairs(web, app, db)
        assert pairs == [EpgPair("epg:t/web", "epg:t/app")]

    def test_cross_vrf_relations_do_not_form_pairs(self):
        web = self._epg("web", vrf="vrf:t/v1", consumes={"contract:t/c"})
        app = self._epg("app", vrf="vrf:t/v2", provides={"contract:t/c"})
        assert self._pairs(web, app) == []

    def test_symmetric_direction(self):
        a = self._epg("a", provides={"contract:t/c"})
        b = self._epg("b", consumes={"contract:t/c"})
        assert self._pairs(a, b) == [EpgPair("epg:t/a", "epg:t/b")]

    def test_no_pairs_without_relations(self):
        assert self._pairs(self._epg("a"), self._epg("b")) == []
