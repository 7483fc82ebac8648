"""Unit tests for TCAM rule rendering (repro.rules) and protocol messages."""

import pytest

from oracles import missing_matches
from repro.policy.objects import Epg, Filter, FilterEntry, Vrf
from repro.protocol import AttachEndpoint, DeliveryReport, DeliveryStatus, Instruction, Operation
from repro.rules import (
    TcamRule,
    rules_for_pair,
    rules_for_pair_entry,
)


@pytest.fixture
def objects():
    vrf = Vrf(uid="vrf:t/101", name="101", scope_id=101)
    web = Epg(uid="epg:t/web", name="web", vrf_uid=vrf.uid, epg_id=1)
    app = Epg(uid="epg:t/app", name="app", vrf_uid=vrf.uid, epg_id=2)
    http = Filter(uid="filter:t/http", name="http", entries=(FilterEntry("tcp", 80),))
    return vrf, web, app, http


class TestTcamRule:
    def test_match_key_excludes_provenance(self):
        a = TcamRule(101, 1, 2, "tcp", 80, vrf_uid="vrf:x")
        b = TcamRule(101, 1, 2, "tcp", 80, vrf_uid="vrf:y")
        assert a.match_key() == b.match_key()
        assert a != b

    def test_objects_deduplicated_and_ordered(self):
        rule = TcamRule(101, 1, 2, "tcp", 80, vrf_uid="v", src_epg_uid="a",
                        dst_epg_uid="b", contract_uid="c", filter_uid="f")
        assert rule.objects() == ["v", "a", "b", "c", "f"]

    def test_references_is_membership_in_objects(self):
        full = TcamRule(101, 1, 2, "tcp", 80, vrf_uid="v", src_epg_uid="a",
                        dst_epg_uid="b", contract_uid="c", filter_uid="f")
        bare = TcamRule(101, 1, 2, "tcp", 80, vrf_uid="v")
        for rule in (full, bare):
            for uid in ("v", "a", "b", "c", "f", "ghost", ""):
                assert rule.references(uid) == (uid in rule.objects())
        # Provenance left empty is no object: the empty uid matches nothing.
        assert not bare.references("")

    def test_describe_mentions_port_and_action(self):
        rule = TcamRule(101, 1, 2, "tcp", 80, src_epg_uid="web", dst_epg_uid="app")
        text = rule.describe()
        assert "tcp/80" in text and "allow" in text


class TestRuleRendering:
    def test_pair_entry_renders_both_directions(self, objects):
        vrf, web, app, http = objects
        rules = rules_for_pair_entry(vrf, web, app, "contract:t/c", http.uid, http.entries[0])
        assert len(rules) == 2
        keys = {(r.src_epg, r.dst_epg) for r in rules}
        assert keys == {(1, 2), (2, 1)}
        assert all(r.vrf_scope == 101 and r.port == 80 for r in rules)

    def test_rules_for_pair_deduplicates_matches(self, objects):
        vrf, web, app, http = objects
        # Two contracts carrying the same filter produce the same match once.
        contracts = [
            ("contract:t/c1", [(http.uid, http)]),
            ("contract:t/c2", [(http.uid, http)]),
        ]
        rules = rules_for_pair(vrf, web, app, contracts)
        assert len(rules) == 2

    def test_rules_for_pair_multiple_entries(self, objects):
        vrf, web, app, _ = objects
        multi = Filter(uid="filter:t/m", name="m",
                       entries=(FilterEntry("tcp", 80), FilterEntry("tcp", 700)))
        rules = rules_for_pair(vrf, web, app, [("contract:t/c", [(multi.uid, multi)])])
        assert len(rules) == 4
        assert {r.port for r in rules} == {80, 700}

    def test_missing_matches(self, objects):
        vrf, web, app, http = objects
        rules = rules_for_pair_entry(vrf, web, app, "c", http.uid, http.entries[0])
        assert missing_matches(rules, rules) == []
        assert missing_matches(rules, rules[:1]) == [rules[1]]
        assert len(missing_matches(rules, [])) == 2


class TestProtocol:
    def test_instruction_describe(self, objects):
        vrf, _, _, _ = objects
        instruction = Instruction(operation=Operation.ADD, obj=vrf, sequence=3)
        assert "add" in instruction.describe()
        assert vrf.uid in instruction.describe()

    def test_attach_endpoint_fields(self):
        attach = AttachEndpoint(endpoint_uid="e", epg_uid="g", switch_uid="leaf-1")
        assert attach.switch_uid == "leaf-1"

    def test_delivery_report_defaults(self):
        report = DeliveryReport(switch_uid="leaf-1", status=DeliveryStatus.DELIVERED)
        assert report.delivered == 0
        assert report.dropped == 0
        assert report.detail is None
