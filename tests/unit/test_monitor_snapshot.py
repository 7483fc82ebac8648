"""Monitor snapshot/restore: resume after a restart around one sweep that is
applied to no incident."""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest

from repro import Controller
from repro.core import ScoutSystem
from repro.exceptions import VerificationError
from repro.online import SNAPSHOT_VERSION, NetworkMonitor
from repro.policy.objects import FilterEntry
from repro.service import ScoutService, TestClient
from repro.workloads import generate_workload, simulation_profile, small_profile

#: ``NetworkMonitor(three_tier.controller, debounce_ticks=1).snapshot()`` as
#: the commit before every monitor carried a partition map wrote it (note
#: ``"partition_map": null``): bootstrap, leaf-2 loses its port-700 rules,
#: ``tick(2)``, one poll (incident open), snapshot.
PARENT_FORMAT_SNAPSHOT = json.loads(
    '''
{"checker": {"digests": {"leaf-1": {"deployed": [[101, 1, 2, "tcp", 80, "allow"], [101,
2, 1, "tcp", 80, "allow"]], "logical": [[101, 1, 2, "tcp", 80, "allow"], [101, 2, 1,
"tcp", 80, "allow"]]}, "leaf-2": {"deployed": [[101, 1, 2, "tcp", 80, "allow"], [101, 2,
1, "tcp", 80, "allow"], [101, 2, 3, "tcp", 80, "allow"], [101, 3, 2, "tcp", 80,
"allow"]], "logical": [[101, 1, 2, "tcp", 80, "allow"], [101, 2, 1, "tcp", 80, "allow"],
[101, 2, 3, "tcp", 80, "allow"], [101, 2, 3, "tcp", 700, "allow"], [101, 3, 2, "tcp",
80, "allow"], [101, 3, 2, "tcp", 700, "allow"]]}, "leaf-3": {"deployed": [[101, 2, 3,
"tcp", 80, "allow"], [101, 2, 3, "tcp", 700, "allow"], [101, 3, 2, "tcp", 80, "allow"],
[101, 3, 2, "tcp", 700, "allow"]], "logical": [[101, 2, 3, "tcp", 80, "allow"], [101, 2,
3, "tcp", 700, "allow"], [101, 3, 2, "tcp", 80, "allow"], [101, 3, 2, "tcp", 700,
"allow"]]}}, "dirty_pairs": [], "dirty_switches": [], "index_dirty": false, "pairs":
[{"pair": ["epg:webshop/App", "epg:webshop/DB"], "placement": ["leaf-2", "leaf-3"],
"rules": [{"action": "allow", "contract_uid": "contract:webshop/App-DB", "dst_epg": 3,
"dst_epg_uid": "epg:webshop/DB", "filter_uid": "filter:webshop/port80", "port": 80,
"protocol": "tcp", "src_epg": 2, "src_epg_uid": "epg:webshop/App", "vrf_scope": 101,
"vrf_uid": "vrf:webshop/101"}, {"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid":
"filter:webshop/port80", "port": 80, "protocol": "tcp", "src_epg": 3, "src_epg_uid":
"epg:webshop/DB", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid":
"epg:webshop/DB", "filter_uid": "filter:webshop/port700", "port": 700, "protocol":
"tcp", "src_epg": 2, "src_epg_uid": "epg:webshop/App", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}, {"action": "allow", "contract_uid": "contract:webshop/App-DB",
"dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid": "filter:webshop/port700",
"port": 700, "protocol": "tcp", "src_epg": 3, "src_epg_uid": "epg:webshop/DB",
"vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}]}, {"pair": ["epg:webshop/App",
"epg:webshop/Web"], "placement": ["leaf-1", "leaf-2"], "rules": [{"action": "allow",
"contract_uid": "contract:webshop/Web-App", "dst_epg": 1, "dst_epg_uid":
"epg:webshop/Web", "filter_uid": "filter:webshop/port80", "port": 80, "protocol": "tcp",
"src_epg": 2, "src_epg_uid": "epg:webshop/App", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}, {"action": "allow", "contract_uid": "contract:webshop/Web-App",
"dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid": "filter:webshop/port80",
"port": 80, "protocol": "tcp", "src_epg": 1, "src_epg_uid": "epg:webshop/Web",
"vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}]}], "pending_objects": [], "results":
{"leaf-1": {"deployed_count": 2, "engine": "ap", "equivalent": true, "extra_rules": [],
"logical_count": 2, "missing_rules": [], "switch_uid": "leaf-1"}, "leaf-2":
{"deployed_count": 4, "engine": "ap", "equivalent": false, "extra_rules": [],
"logical_count": 6, "missing_rules": [{"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid": "epg:webshop/DB", "filter_uid":
"filter:webshop/port700", "port": 700, "protocol": "tcp", "src_epg": 2, "src_epg_uid":
"epg:webshop/App", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid":
"epg:webshop/App", "filter_uid": "filter:webshop/port700", "port": 700, "protocol":
"tcp", "src_epg": 3, "src_epg_uid": "epg:webshop/DB", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}], "switch_uid": "leaf-2"}, "leaf-3": {"deployed_count": 4, "engine":
"ap", "equivalent": true, "extra_rules": [], "logical_count": 4, "missing_rules": [],
"switch_uid": "leaf-3"}}, "stats": {"digest_short_circuits": 0, "full_checks": 1,
"index_patches": 0, "index_rebuilds": 0, "pair_recompiles": 0, "switch_checks": 1},
"switch_refs": {"leaf-1": [[[101, 2, 1, "tcp", 80, "allow"], 1], [[101, 1, 2, "tcp", 80,
"allow"], 1]], "leaf-2": [[[101, 2, 3, "tcp", 80, "allow"], 1], [[101, 3, 2, "tcp", 80,
"allow"], 1], [[101, 2, 3, "tcp", 700, "allow"], 1], [[101, 3, 2, "tcp", 700, "allow"],
1], [[101, 2, 1, "tcp", 80, "allow"], 1], [[101, 1, 2, "tcp", 80, "allow"], 1]],
"leaf-3": [[[101, 2, 3, "tcp", 80, "allow"], 1], [[101, 3, 2, "tcp", 80, "allow"], 1],
[[101, 2, 3, "tcp", 700, "allow"], 1], [[101, 3, 2, "tcp", 700, "allow"], 1]]},
"switch_rules": {"leaf-1": [{"action": "allow", "contract_uid":
"contract:webshop/Web-App", "dst_epg": 1, "dst_epg_uid": "epg:webshop/Web",
"filter_uid": "filter:webshop/port80", "port": 80, "protocol": "tcp", "src_epg": 2,
"src_epg_uid": "epg:webshop/App", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"},
{"action": "allow", "contract_uid": "contract:webshop/Web-App", "dst_epg": 2,
"dst_epg_uid": "epg:webshop/App", "filter_uid": "filter:webshop/port80", "port": 80,
"protocol": "tcp", "src_epg": 1, "src_epg_uid": "epg:webshop/Web", "vrf_scope": 101,
"vrf_uid": "vrf:webshop/101"}], "leaf-2": [{"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid": "epg:webshop/DB", "filter_uid":
"filter:webshop/port80", "port": 80, "protocol": "tcp", "src_epg": 2, "src_epg_uid":
"epg:webshop/App", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid":
"epg:webshop/App", "filter_uid": "filter:webshop/port80", "port": 80, "protocol": "tcp",
"src_epg": 3, "src_epg_uid": "epg:webshop/DB", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}, {"action": "allow", "contract_uid": "contract:webshop/App-DB",
"dst_epg": 3, "dst_epg_uid": "epg:webshop/DB", "filter_uid": "filter:webshop/port700",
"port": 700, "protocol": "tcp", "src_epg": 2, "src_epg_uid": "epg:webshop/App",
"vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid":
"filter:webshop/port700", "port": 700, "protocol": "tcp", "src_epg": 3, "src_epg_uid":
"epg:webshop/DB", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow",
"contract_uid": "contract:webshop/Web-App", "dst_epg": 1, "dst_epg_uid":
"epg:webshop/Web", "filter_uid": "filter:webshop/port80", "port": 80, "protocol": "tcp",
"src_epg": 2, "src_epg_uid": "epg:webshop/App", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}, {"action": "allow", "contract_uid": "contract:webshop/Web-App",
"dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid": "filter:webshop/port80",
"port": 80, "protocol": "tcp", "src_epg": 1, "src_epg_uid": "epg:webshop/Web",
"vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}], "leaf-3": [{"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid":
"epg:webshop/DB", "filter_uid": "filter:webshop/port80", "port": 80, "protocol": "tcp",
"src_epg": 2, "src_epg_uid": "epg:webshop/App", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}, {"action": "allow", "contract_uid": "contract:webshop/App-DB",
"dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid": "filter:webshop/port80",
"port": 80, "protocol": "tcp", "src_epg": 3, "src_epg_uid": "epg:webshop/DB",
"vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid": "epg:webshop/DB", "filter_uid":
"filter:webshop/port700", "port": 700, "protocol": "tcp", "src_epg": 2, "src_epg_uid":
"epg:webshop/App", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid":
"epg:webshop/App", "filter_uid": "filter:webshop/port700", "port": 700, "protocol":
"tcp", "src_epg": 3, "src_epg_uid": "epg:webshop/DB", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}]}}, "clock": 3, "debounce_ticks": 1, "events_seen": 2,
"first_event_at": null, "incidents": {"counter": 1, "incidents": [{"corr_id":
"poll-t3-000001", "extra_rules": 0, "fault_codes": [], "incident_id": "INC-0001",
"missing_rules": 2, "opened_at": 3, "resolved_at": null, "status": "open", "suspects":
["contract:webshop/App-DB", "epg:webshop/DB", "filter:webshop/port700"], "switch_uid":
"leaf-2", "updated_at": 3, "updates": 0}]}, "kind": "monitor-snapshot", "last_event_at":
1, "max_wait_ticks": 5, "partition_map": null, "partitions": 1, "passes": 1,
"pending_events": [], "poll_seq": 1, "version": 1}
'''
)

#: The same history as the commit before version 3 wrote it: whole results
#: and both key sets of every switch.
VERSION_2_SNAPSHOT = json.loads(
    '''
{"checker": {"digests": {"leaf-1": {"deployed": [[101, 1, 2, "tcp", 80, "allow"], [101,
2, 1, "tcp", 80, "allow"]], "logical": [[101, 1, 2, "tcp", 80, "allow"], [101, 2, 1,
"tcp", 80, "allow"]]}, "leaf-2": {"deployed": [[101, 1, 2, "tcp", 80, "allow"], [101, 2,
1, "tcp", 80, "allow"], [101, 2, 3, "tcp", 80, "allow"], [101, 3, 2, "tcp", 80,
"allow"]], "logical": [[101, 1, 2, "tcp", 80, "allow"], [101, 2, 1, "tcp", 80, "allow"],
[101, 2, 3, "tcp", 80, "allow"], [101, 2, 3, "tcp", 700, "allow"], [101, 3, 2, "tcp",
80, "allow"], [101, 3, 2, "tcp", 700, "allow"]]}, "leaf-3": {"deployed": [[101, 2, 3,
"tcp", 80, "allow"], [101, 2, 3, "tcp", 700, "allow"], [101, 3, 2, "tcp", 80, "allow"],
[101, 3, 2, "tcp", 700, "allow"]], "logical": [[101, 2, 3, "tcp", 80, "allow"], [101, 2,
3, "tcp", 700, "allow"], [101, 3, 2, "tcp", 80, "allow"], [101, 3, 2, "tcp", 700,
"allow"]]}}, "dirty_switches": [], "pending_objects": [], "results": {"leaf-1":
{"deployed_count": 2, "engine": "ap", "equivalent": true, "extra_rules": [],
"logical_count": 2, "missing_rules": [], "switch_uid": "leaf-1"}, "leaf-2":
{"deployed_count": 4, "engine": "ap", "equivalent": false, "extra_rules": [],
"logical_count": 6, "missing_rules": [{"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid": "epg:webshop/DB", "filter_uid":
"filter:webshop/port700", "port": 700, "protocol": "tcp", "src_epg": 2, "src_epg_uid":
"epg:webshop/App", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, {"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid":
"epg:webshop/App", "filter_uid": "filter:webshop/port700", "port": 700, "protocol":
"tcp", "src_epg": 3, "src_epg_uid": "epg:webshop/DB", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}], "switch_uid": "leaf-2"}, "leaf-3": {"deployed_count": 4, "engine":
"ap", "equivalent": true, "extra_rules": [], "logical_count": 4, "missing_rules": [],
"switch_uid": "leaf-3"}}, "stats": {"digest_short_circuits": 0, "full_checks": 1,
"index_patches": 0, "index_rebuilds": 0, "pair_recompiles": 2, "switch_checks": 1}},
"clock": 3, "debounce_ticks": 1, "events_seen": 2, "first_event_at": null, "incidents":
{"counter": 1, "incidents": [{"corr_id": "poll-t3-000001", "extra_rules": 0,
"fault_codes": [], "incident_id": "INC-0001", "missing_rules": 2, "opened_at": 3,
"resolved_at": null, "status": "open", "suspects": ["contract:webshop/App-DB",
"epg:webshop/DB", "filter:webshop/port700"], "switch_uid": "leaf-2", "updated_at": 3,
"updates": 0}]}, "kind": "monitor-snapshot", "last_event_at": 1, "max_wait_ticks": 5,
"partition_map": {"shards": [["leaf-1", "leaf-2", "leaf-3"]]}, "partitions": 1,
"passes": 1, "pending_events": [], "poll_seq": 1, "version": 2}
'''
)

#: The same history as ``9052e0a``, the commit before version 4, wrote it —
#: then leaf-3 loses its port-700 rules too and the snapshot is taken with
#: that batch un-polled: one ``rule-lost`` entry, rule body included, per rule.
VERSION_3_SNAPSHOT = json.loads(
    '''
{"checker": {"dirty_switches": ["leaf-3"], "pending_objects": [], "stats":
{"digest_short_circuits": 0, "full_checks": 1, "index_patches": 0, "index_rebuilds": 0,
"pair_recompiles": 2, "switch_checks": 1}, "verdicts": {"leaf-2":
"71f0ad6a22a45bc505e8428c25b305808fba5cff2f38ae452364a05556229728"}}, "clock": 3,
"debounce_ticks": 1, "events_seen": 4, "first_event_at": 3, "incidents": {"counter": 1,
"incidents": [{"corr_id": "poll-t3-000001", "extra_rules": 0, "fault_codes": [],
"incident_id": "INC-0001", "missing_rules": 2, "opened_at": 3, "resolved_at": null,
"status": "open", "suspects": ["contract:webshop/App-DB", "epg:webshop/DB",
"filter:webshop/port700"], "switch_uid": "leaf-2", "updated_at": 3, "updates": 0}]},
"kind": "monitor-snapshot", "last_event_at": 3, "max_wait_ticks": 5, "partition_map":
{"shards": [["leaf-1", "leaf-2", "leaf-3"]]}, "partitions": 1, "passes": 1,
"pending_events": [{"cause": "removed", "kind": "rule-lost", "rule": {"action": "allow",
"contract_uid": "contract:webshop/App-DB", "dst_epg": 3, "dst_epg_uid":
"epg:webshop/DB", "filter_uid": "filter:webshop/port700", "port": 700, "protocol":
"tcp", "src_epg": 2, "src_epg_uid": "epg:webshop/App", "vrf_scope": 101, "vrf_uid":
"vrf:webshop/101"}, "switch_uid": "leaf-3", "timestamp": 3}, {"cause": "removed",
"kind": "rule-lost", "rule": {"action": "allow", "contract_uid":
"contract:webshop/App-DB", "dst_epg": 2, "dst_epg_uid": "epg:webshop/App", "filter_uid":
"filter:webshop/port700", "port": 700, "protocol": "tcp", "src_epg": 3, "src_epg_uid":
"epg:webshop/DB", "vrf_scope": 101, "vrf_uid": "vrf:webshop/101"}, "switch_uid":
"leaf-3", "timestamp": 3}], "poll_seq": 1, "version": 3}
'''
)


def _wipe(scenario, uid, port=700):
    removed = scenario.fabric.switch(uid).tcam.remove_where(
        lambda rule: rule.port == port
    )
    assert removed
    return removed


@pytest.fixture
def controller():
    workload = generate_workload(small_profile())
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    return controller


class TestSnapshotRestore:
    def test_round_trip_resumes_after_one_sweep_applied_to_no_incident(
        self, three_tier
    ):
        monitor = NetworkMonitor(three_tier.controller, debounce_ticks=1)
        monitor.start()
        _wipe(three_tier, "leaf-2")
        three_tier.controller.clock.tick(2)
        incident = monitor.poll().opened[0]

        # Leave an unprocessed batch pending across the "restart": losing it
        # is exactly the bug the snapshot carries pending events to prevent.
        _wipe(three_tier, "leaf-3")
        pending = monitor.pending_events()
        assert pending > 0
        snap = json.loads(json.dumps(monitor.snapshot(), sort_keys=True))
        monitor.stop()
        # The document carries the violating switches' verdict fingerprints,
        # dirt and counters — no copy of L or T: the restoring side reads
        # those where they live — and one pending entry for the one wipe.
        assert snap["version"] == SNAPSHOT_VERSION == 4
        assert snap["pending_events"] == [
            {
                "kind": "tcam-changed",
                "timestamp": three_tier.controller.clock.peek(),
                "switch_uid": "leaf-3",
                "installed": 0,
                "lost": 2,
            }
        ]
        sections = {"verdicts", "dirty_switches", "pending_objects", "stats"}
        assert set(snap["checker"]) == sections
        assert sorted(snap["checker"]["verdicts"]) == ["leaf-2"]
        assert snap["checker"]["dirty_switches"] == ["leaf-3"]

        restored = NetworkMonitor.from_snapshot(three_tier.controller, snap)
        assert restored.running
        stats = restored.stats()
        # The snapshot's bootstrap, and the restore's own sweep.
        assert stats["full_checks"] == 2
        assert stats["restores"] == 1
        assert restored.pending_events() == pending
        # The report reads live state — ahead of the un-polled batch — but
        # the incident ledger waits for the poll.
        live = ScoutSystem(three_tier.controller).check()
        assert restored.report().semantic_fingerprint() == live.semantic_fingerprint()
        assert [item.switch_uid for item in restored.store.active()] == ["leaf-2"]

        # The incident came through byte-for-byte, still open, in a store
        # that keeps allocating fresh ids after it.
        twin = restored.store.get(incident.incident_id)
        assert twin is not None and twin.is_open
        assert twin.to_dict() == incident.to_dict()

        # The carried batch processes exactly as it would have.
        three_tier.controller.clock.tick(2)
        result = restored.poll()
        assert [opened.switch_uid for opened in result.opened] == ["leaf-3"]
        assert restored.stats()["full_checks"] == 2
        fresh = ScoutSystem(three_tier.controller).check()
        assert restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
        restored.close()

    def test_restore_while_running_rejected(self, three_tier):
        monitor = NetworkMonitor(three_tier.controller)
        monitor.start()
        snap = monitor.snapshot()
        with pytest.raises(RuntimeError):
            monitor.restore(snap)
        monitor.close()

    def test_bad_kind_and_version_rejected(self, three_tier):
        monitor = NetworkMonitor(three_tier.controller)
        monitor.start()
        snap = monitor.snapshot()
        monitor.stop()
        with pytest.raises(ValueError, match="kind"):
            monitor.restore({**snap, "kind": "something-else"})
        for version in (999, SNAPSHOT_VERSION + 1, 0, True, "4", None):
            with pytest.raises(ValueError, match="version"):
                monitor.restore({**snap, "version": version})
        # The two fields only from_snapshot reads.
        for field, value in (("partitions", "two"), ("partition_map", "leaf-1")):
            with pytest.raises(ValueError, match=field):
                NetworkMonitor.from_snapshot(three_tier.controller, {**snap, field: value})
        # The failed restores left the monitor detached and restorable.
        assert not monitor.running
        monitor.restore(snap)
        assert monitor.running
        monitor.close()

    def test_restore_into_a_new_partition_count_rebalances(self, three_tier):
        monitor = NetworkMonitor(three_tier.controller, debounce_ticks=1)
        monitor.start()
        _wipe(three_tier, "leaf-2")
        three_tier.controller.clock.tick(2)
        incident = monitor.poll().opened[0]
        verdict = monitor.report().semantic_fingerprint()
        snap = monitor.snapshot()
        monitor.stop()

        resharded = NetworkMonitor.from_snapshot(
            three_tier.controller, snap, partitions=2
        )
        assert resharded.partitions == 2
        assert resharded.stats()["full_checks"] == 1 + 2  # one per new checker
        assert resharded.report().semantic_fingerprint() == verdict
        # The restored state drives the lifecycle across the new shards: a
        # repair resolves the carried incident without a further sweep.
        three_tier.fabric.switch("leaf-2").sync_tcam()
        three_tier.controller.clock.tick(2)
        result = resharded.poll()
        assert [done.incident_id for done in result.resolved] == [incident.incident_id]
        assert resharded.stats()["full_checks"] == 3
        resharded.close()

    def test_snapshot_reuses_the_stored_partition_map(self, three_tier):
        monitor = NetworkMonitor(three_tier.controller, partitions=2)
        monitor.start()
        snap = monitor.snapshot()
        monitor.stop()
        restored = NetworkMonitor.from_snapshot(three_tier.controller, snap)
        assert restored.partitions == 2
        assert restored.partition_map is not None
        assert restored.partition_map.to_dict() == snap["partition_map"]
        restored.close()


class TestRestoreAgainstAMovedPolicy:
    """The snapshot carries no L; what the policy did while the monitor was
    down is found by the restore's sweep against the current compile."""

    @staticmethod
    def _switches_depending_on(index, uid):
        pairs = index.pairs_for_object(uid)
        return {leaf for pair in pairs for leaf in index.switches_for_pair(pair)}

    def _edit_the_widest_filter_unannounced(self, controller):
        """Widen the filter most leaves depend on while nothing listens;
        the leaves whose L moved."""
        index = controller.build_index()
        target = max(
            controller.policy.filters(),
            key=lambda flt: len(self._switches_depending_on(index, flt.uid)),
        )
        edited = dataclasses.replace(
            target, entries=target.entries + (FilterEntry(protocol="tcp", port=47000),)
        )
        controller.modify_object(controller.policy.tenant_of(target.uid).name, edited)
        return sorted(self._switches_depending_on(index, target.uid))

    def test_a_filter_edited_while_down_is_checked_against_the_current_l(
        self, controller
    ):
        monitor = NetworkMonitor(controller, debounce_ticks=1)
        monitor.start()
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()

        # Nobody is listening: no event will ever announce this edit.
        stale = set(self._edit_the_widest_filter_unannounced(controller))
        assert len(stale) > 1

        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            assert restored.stats()["full_checks"] == 2
            # One unrelated TCAM event is all the first poll is told about.
            unrelated = sorted(set(controller.fabric.leaf_uids()) - stale)
            tcam = controller.fabric.switch((unrelated or sorted(stale))[0]).tcam
            tcam.write([tcam.match_keys()[0]], {})
            result = restored.poll(force=True)
            assert stale <= set(result.switches_rechecked)
            fresh = ScoutSystem(controller).check()
            assert len(fresh.switches_with_violations()) >= len(stale)
            assert (
                restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
            assert sorted(i.switch_uid for i in restored.store.active()) == (
                fresh.switches_with_violations()
            )
            assert restored.stats()["full_checks"] == 2
        finally:
            restored.close()

    def test_drift_found_by_a_restore_is_rechecked_by_a_poll_with_no_event(
        self, controller
    ):
        """The dirt a restore finds came with no event; the first poll that
        runs re-checks it all the same — not the next unrelated bus event."""
        monitor = NetworkMonitor(controller, debounce_ticks=1)
        monitor.start()
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        drifted = self._edit_the_widest_filter_unannounced(controller)
        assert len(drifted) > 1

        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            assert restored.pending_events() == 0
            assert restored.stats()["dirty_switches"] == len(drifted)
            assert restored.due()  # no burst to wait out
            result = restored.poll()
            assert result.events == 0
            assert result.switches_rechecked == drifted
            assert sorted(i.switch_uid for i in result.opened) == drifted
            fresh = ScoutSystem(controller).check()
            assert fresh.switches_with_violations() == drifted
            assert (
                restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
            stats = restored.stats()
            assert stats["dirty_switches"] == 0 and stats["full_checks"] == 2
            # Clean again: nothing is due and a forced poll has nothing to do.
            assert not restored.due()
            assert restored.poll(force=True) is None
        finally:
            restored.close()

    def test_a_restarted_daemon_rechecks_the_drift_on_its_first_poll(self, controller):
        monitor = NetworkMonitor(controller)
        monitor.start()
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        drifted = self._edit_the_widest_filter_unannounced(controller)

        service = ScoutService(controller, sync_audits=True, restore_snapshot=document)
        try:
            client = TestClient(service)
            assert client.get("/monitor/status").json()["due"] is True
            polled = client.post("/monitor/poll", json={}).json()["pass"]
            assert polled["events"] == 0
            assert polled["switches_rechecked"] == drifted
            status = client.get("/monitor/status").json()
            assert status["stats"]["dirty_switches"] == 0
            assert status["stats"]["full_checks"] == 2
            open_on = sorted(
                incident["switch_uid"]
                for incident in client.get("/incidents?status=open").json()["incidents"]
            )
            assert open_on == drifted
            fresh = ScoutSystem(controller).check()
            assert (
                service.monitor.report().semantic_fingerprint()
                == fresh.semantic_fingerprint()
            )
        finally:
            service.close()

    def test_a_restore_in_a_fresh_process_leaves_the_counters_alone(self, controller):
        monitor = NetworkMonitor(controller, partitions=2)
        monitor.start()
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        counters = ("index_rebuilds", "index_patches", "pair_recompiles")
        taken = {key: monitor.stats()[key] for key in counters}

        # A controller that has compiled nothing yet: the restore's own
        # request is a full compile, and none of it is the monitor's history.
        workload = generate_workload(small_profile())
        elsewhere = Controller(workload.policy, workload.fabric)
        elsewhere.deploy()
        restored = NetworkMonitor.from_snapshot(elsewhere, document)
        try:
            assert elsewhere.compile_stats()["pairs_recompiled"] > 0
            assert {key: restored.stats()[key] for key in counters} == taken
            assert restored.poll(force=True) is None
            assert restored.report().equivalent
        finally:
            restored.close()

    def test_a_policy_that_does_not_compile_fails_the_restore_before_any_change(
        self, controller, monkeypatch
    ):
        monitor = NetworkMonitor(controller)
        monitor.start()
        tcam = controller.fabric.switch(sorted(controller.fabric.leaf_uids())[0]).tcam
        tcam.write([tcam.match_keys()[0]], {})
        monitor.poll(force=True)
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        assert document["incidents"]["incidents"]

        fresh = NetworkMonitor(controller)
        clock_before = controller.clock.peek()

        def broken():
            raise RuntimeError("policy does not compile")

        with monkeypatch.context() as patched:
            patched.setattr(controller, "_compiled_rules", broken)
            with pytest.raises(RuntimeError, match="does not compile"):
                fresh.restore(document)
        assert not fresh.running
        assert len(fresh.store) == 0
        assert controller.clock.peek() == clock_before
        fresh.start()
        fresh.close()

    def test_policy_dirt_pending_at_snapshot_time_restores_as_dirty_switches(
        self, three_tier
    ):
        controller = three_tier.controller
        monitor = NetworkMonitor(controller, debounce_ticks=1)
        monitor.start()
        # Delete the filter and leave the batch unpolled: after a restart
        # only the index held *before* the edit still knows its dependents.
        tenant = three_tier.policy.tenants["webshop"]
        flt = tenant.filters[three_tier.uids["filter_extra_0"]]
        controller.delete_object("webshop", flt, detail="drop filter")
        assert monitor.pending_events()
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        assert document["checker"]["dirty_switches"] == ["leaf-2", "leaf-3"]
        assert document["checker"]["pending_objects"] == [[flt.uid, "filter"]]

        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            controller.clock.tick(2)
            result = restored.poll()
            assert result.switches_rechecked == ["leaf-2", "leaf-3"]
            fresh = ScoutSystem(controller).check()
            assert (
                restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
        finally:
            restored.close()


class TestRestoreAgainstAMovedFabric:
    """The snapshot carries no T either: where the fabric and the document
    disagree, the restore's sweep sides with the fabric and the first poll
    settles the ledger."""

    @staticmethod
    def _first_leaf(controller):
        return controller.fabric.switch(sorted(controller.fabric.leaf_uids())[0])

    def _snapshot_then_wipe_a_leaf(self, controller):
        monitor = NetworkMonitor(controller, debounce_ticks=1)
        monitor.start()
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        # Nobody is listening: no event will ever announce this loss.
        leaf = self._first_leaf(controller)
        assert leaf.tcam.remove_where(lambda rule: True)
        return document, leaf.uid

    def test_a_leaf_wiped_while_down_is_opened_by_the_first_poll(self, controller):
        document, leaf = self._snapshot_then_wipe_a_leaf(controller)
        assert document["checker"]["verdicts"] == {}

        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            assert restored.pending_events() == 0
            assert restored.stats()["dirty_switches"] == 1
            assert len(restored.store) == 0  # the sweep itself opens nothing
            assert restored.due()
            result = restored.poll()
            assert result.events == 0
            assert result.switches_rechecked == [leaf]
            assert [incident.switch_uid for incident in result.opened] == [leaf]
            fresh = ScoutSystem(controller).check()
            assert fresh.switches_with_violations() == [leaf]
            assert (
                restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
            assert not restored.due()
            assert restored.poll(force=True) is None
        finally:
            restored.close()

    def test_a_restarted_daemon_opens_the_wiped_leaf_on_its_first_poll(
        self, controller
    ):
        document, leaf = self._snapshot_then_wipe_a_leaf(controller)
        service = ScoutService(controller, sync_audits=True, restore_snapshot=document)
        try:
            client = TestClient(service)
            assert client.get("/monitor/status").json()["due"] is True
            polled = client.post("/monitor/poll", json={}).json()["pass"]
            assert polled["events"] == 0
            assert polled["switches_rechecked"] == [leaf]
            incidents = client.get("/incidents?status=open").json()["incidents"]
            assert [incident["switch_uid"] for incident in incidents] == [leaf]
            fresh = ScoutSystem(controller).check()
            assert (
                service.monitor.report().semantic_fingerprint()
                == fresh.semantic_fingerprint()
            )
        finally:
            service.close()

    def test_a_violation_repaired_while_down_is_resolved_by_the_first_poll(
        self, controller
    ):
        monitor = NetworkMonitor(controller, debounce_ticks=1)
        monitor.start()
        leaf = self._first_leaf(controller)
        assert leaf.tcam.remove_where(lambda rule: True)
        [incident] = monitor.poll(force=True).opened
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        assert sorted(document["checker"]["verdicts"]) == [leaf.uid]
        leaf.sync_tcam()  # what a restart on a regenerated fabric finds

        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            # The restore resolved nothing: the incident waits for the poll.
            assert [item.switch_uid for item in restored.store.active()] == [leaf.uid]
            assert restored.report().equivalent
            assert restored.due()
            result = restored.poll()
            assert result.events == 0
            assert [item.incident_id for item in result.resolved] == [
                incident.incident_id
            ]
            assert restored.store.active() == []
            assert restored.poll(force=True) is None
        finally:
            restored.close()

    def test_an_acked_incident_is_not_reopened_by_a_restart(self, three_tier):
        service = ScoutService(three_tier.controller, sync_audits=True)
        client = TestClient(service)
        _wipe(three_tier, "leaf-2")
        three_tier.controller.clock.tick(2)
        [opened] = client.post("/monitor/poll", json={}).json()["pass"]["opened"]
        acked = client.post(f"/incidents/{opened['incident_id']}/resolve", json={})
        assert acked.status == 200
        snap = client.post("/monitor/snapshot", json={}).json()["snapshot"]
        service.close()

        # Still violating, verdict unchanged: no dirt, so nothing re-opens it.
        reborn = ScoutService(
            three_tier.controller, sync_audits=True, restore_snapshot=snap
        )
        try:
            restarted = TestClient(reborn)
            assert not reborn.monitor.report().equivalent
            status = restarted.get("/monitor/status").json()
            assert status["due"] is False
            assert status["stats"]["dirty_switches"] == 0
            assert restarted.post("/monitor/poll", json={}).json()["pass"] is None
            assert restarted.get("/incidents?status=open").json()["incidents"] == []
            assert len(reborn.store) == 1
        finally:
            reborn.close()

    def test_a_sweep_that_raises_fails_the_restore_before_any_change(
        self, controller
    ):
        monitor = NetworkMonitor(controller)
        monitor.start()
        leaf = self._first_leaf(controller)
        leaf.tcam.write([leaf.tcam.match_keys()[0]], {})
        monitor.poll(force=True)
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        assert document["incidents"]["incidents"]
        document["clock"] = controller.clock.peek() + 50

        # A rule no engine can encode: the fabric cannot be checked.
        unencodable = dataclasses.replace(leaf.tcam.rules()[0], port=70_000)
        leaf.tcam.write((), {unencodable.match_key(): unencodable})
        fresh = NetworkMonitor(controller)
        clock_before = controller.clock.peek()
        with pytest.raises(VerificationError, match="port value 70000"):
            fresh.restore(document)
        assert not fresh.running
        assert len(fresh.store) == 0 and fresh.pending_events() == 0
        assert fresh.stats()["restores"] == 0 and fresh.stats()["full_checks"] == 0
        assert controller.clock.peek() == clock_before

        leaf.tcam.write([unencodable.match_key()], {})
        fresh.start()
        assert [item.switch_uid for item in fresh.store.active()] == [leaf.uid]
        fresh.close()

    def test_an_engine_error_in_the_sweep_is_not_a_malformed_snapshot(
        self, controller, monkeypatch
    ):
        """Only parsing the document can make it malformed: what the sweep
        raises reaches the caller as itself, before any change."""
        monitor = NetworkMonitor(controller)
        monitor.start()
        leaf = self._first_leaf(controller)
        leaf.tcam.write([leaf.tcam.match_keys()[0]], {})
        monitor.poll(force=True)
        document = json.loads(json.dumps(monitor.snapshot()))
        monitor.close()
        document["clock"] = controller.clock.peek() + 50

        def broken_engine(*args, **kwargs):
            raise TypeError("engine bug")

        fresh = NetworkMonitor(controller)
        clock_before = controller.clock.peek()
        monkeypatch.setattr(fresh.checkers[0].checker, "check_switch", broken_engine)
        with pytest.raises(TypeError, match="engine bug"):
            fresh.restore(document)
        assert not fresh.running
        assert len(fresh.store) == 0 and fresh.pending_events() == 0
        assert fresh.stats()["restores"] == 0 and fresh.stats()["full_checks"] == 0
        assert controller.clock.peek() == clock_before

        monkeypatch.undo()
        fresh.restore(document)
        assert fresh.running
        assert [item.switch_uid for item in fresh.store.active()] == [leaf.uid]
        fresh.close()


class TestSnapshotSize:
    def test_a_healthy_simulation_snapshot_is_a_few_kilobytes(self):
        """No section of the document grows with the rules a switch holds."""
        workload = generate_workload(simulation_profile())
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        monitor = NetworkMonitor(controller)
        monitor.start()
        document = monitor.snapshot()
        monitor.close()
        assert set(document["checker"]) == {
            "verdicts",
            "dirty_switches",
            "pending_objects",
            "stats",
        }
        assert document["checker"]["verdicts"] == {}
        assert len(json.dumps(document)) < 16 * 1024

    def test_a_snapshot_taken_mid_burst_is_a_few_kilobytes_too(self):
        """The pending batch is a switch and two counts per transaction: every
        leaf half-wiped and un-polled adds ten short entries, not 15.9 k rule
        bodies — and the batch still comes back whole."""
        workload = generate_workload(simulation_profile())
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        monitor = NetworkMonitor(controller)
        monitor.start()
        draws = random.Random(2018)
        leaves = controller.fabric.leaf_uids()
        for uid in leaves:
            assert controller.fabric.switch(uid).tcam.remove_where(
                lambda rule: draws.random() < 0.5
            )
        assert monitor.pending_events() == len(leaves) == 10
        text = json.dumps(monitor.snapshot())
        assert len(text) < 16 * 1024

        # Restored beside the monitor it was taken from: same batch, same
        # debounce stamps, and one poll later the same incidents.
        restored = NetworkMonitor.from_snapshot(controller, json.loads(text))
        try:
            assert restored.pending_events() == monitor.pending_events()
            stamps = ("first_event_at", "last_event_at")
            document = restored.snapshot()
            assert [document[key] for key in stamps] == [controller.clock.peek()] * 2
            assert document["pending_events"] == monitor.snapshot()["pending_events"]
            assert not restored.due() and not monitor.due()
            controller.clock.tick(2)
            assert restored.due() and monitor.due()
            assert restored.poll().to_dict() == monitor.poll().to_dict()
            assert len(restored.store.active()) == len(leaves)
            assert restored.store.to_jsonl() == monitor.store.to_jsonl()
        finally:
            restored.close()
            monitor.close()


class TestParentFormatSnapshot:
    @pytest.mark.parametrize("partitions", (None, 2))
    @pytest.mark.parametrize(
        "parent_format",
        (PARENT_FORMAT_SNAPSHOT, VERSION_2_SNAPSHOT, VERSION_3_SNAPSHOT),
        ids=("v1", "v2", "v3"),
    )
    def test_parent_commit_snapshot_restores(
        self, three_tier, parent_format, partitions
    ):
        assert PARENT_FORMAT_SNAPSHOT["partition_map"] is None
        assert parent_format["version"] < SNAPSHOT_VERSION
        assert parent_format["partitions"] == 1
        # The fabric state the document was taken in: only the version-3 one
        # was taken mid-burst, one pending entry per rule leaf-3 lost.
        pending = len(parent_format["pending_events"])
        assert pending == (2 if parent_format is VERSION_3_SNAPSHOT else 0)
        for uid in ("leaf-2", "leaf-3") if pending else ("leaf-2",):
            _wipe(three_tier, uid)
        document = json.loads(json.dumps(parent_format))
        if "results" in document["checker"]:
            # Written before the engine ladder collapsed: labels are opaque
            # strings, not a vocabulary the restore validates.
            document["checker"]["results"]["leaf-1"]["engine"] = "hash"
            document["checker"]["results"]["leaf-2"]["engine"] = "bdd"
        restored = NetworkMonitor.from_snapshot(
            three_tier.controller, document, partitions=partitions
        )
        try:
            assert restored.running
            assert restored.partitions == (partitions or 1)
            stats = restored.stats()
            # The document's bootstrap plus one sweep per restoring checker;
            # its verdicts matched, so nothing but its own batch is left to
            # re-check — counted as the writer counted it, one per rule.
            assert stats["full_checks"] == 1 + (partitions or 1)
            assert stats["dirty_switches"] == (1 if pending else 0)
            assert stats["restores"] == 1
            assert restored.pending_events() == pending
            assert [item.switch_uid for item in restored.store.active()] == ["leaf-2"]
            fresh = ScoutSystem(three_tier.controller).check()
            assert (
                restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
            # A restored monitor writes the current format.
            assert len(restored.snapshot()["partition_map"]["shards"]) == (
                partitions or 1
            )
            if pending:
                three_tier.controller.clock.tick(2)
                carried = restored.poll()
                assert carried.events == pending
                assert [item.switch_uid for item in carried.opened] == ["leaf-3"]
        finally:
            restored.close()

    def test_a_version_3_snapshot_restores_into_the_daemon(self, three_tier):
        for uid in ("leaf-2", "leaf-3"):
            _wipe(three_tier, uid)
        reborn = ScoutService(
            three_tier.controller,
            sync_audits=True,
            restore_snapshot=json.loads(json.dumps(VERSION_3_SNAPSHOT)),
        )
        try:
            status = TestClient(reborn).get("/monitor/status").json()["stats"]
            assert status["partitions"] == 1 and status["restores"] == 1
            assert status["pending_events"] == 2
            active = reborn.monitor.store.active()
            assert [item.switch_uid for item in active] == ["leaf-2"]
            fresh = ScoutSystem(three_tier.controller).check()
            assert (
                reborn.monitor.report().semantic_fingerprint()
                == fresh.semantic_fingerprint()
            )
        finally:
            reborn.close()

    def test_version_1_policy_dirt_is_rechecked_by_the_first_poll(self, three_tier):
        """A version-1 document taken with a policy batch still pending:
        ``dirty_pairs`` + ``index_dirty`` described that dirt against the
        snapshotting checker's private compile, which no longer exists."""
        controller = three_tier.controller
        document = json.loads(json.dumps(PARENT_FORMAT_SNAPSHOT))
        assert document["version"] == 1
        _wipe(three_tier, "leaf-2")  # the fabric state the document was taken in
        # What the version-1 monitor had been told when it was stopped: the
        # port-700 filter widened (never deployed), batch unpolled.
        filter_uid = three_tier.uids["filter_extra_0"]
        widened = dataclasses.replace(
            three_tier.policy.tenants["webshop"].filters[filter_uid],
            entries=(
                FilterEntry(protocol="tcp", port=700),
                FilterEntry(protocol="tcp", port=701),
            ),
        )
        controller.modify_object("webshop", widened, detail="add port 701")
        checker = document["checker"]
        checker["dirty_pairs"] = [["epg:webshop/App", "epg:webshop/DB"]]
        checker["pending_objects"] = [[filter_uid, "filter"]]
        checker["index_dirty"] = True
        document["pending_events"] = [
            {
                "kind": "policy-changed",
                "timestamp": controller.clock.peek(),
                "object_uid": filter_uid,
                "object_type": "filter",
                "operation": "modify",
            }
        ]
        document["first_event_at"] = document["last_event_at"] = controller.clock.peek()
        document["clock"] = controller.clock.peek()

        restored = NetworkMonitor.from_snapshot(controller, document)
        try:
            assert restored.stats()["full_checks"] == 2
            assert restored.pending_events() == 1
            result = restored.poll(force=True)
            assert result.switches_rechecked == ["leaf-2", "leaf-3"]
            fresh = ScoutSystem(controller).check()
            assert fresh.switches_with_violations() == ["leaf-2", "leaf-3"]
            assert (
                restored.report().semantic_fingerprint() == fresh.semantic_fingerprint()
            )
            assert restored.stats()["full_checks"] == 2
            assert restored.snapshot()["version"] == SNAPSHOT_VERSION
        finally:
            restored.close()


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: {**doc, key: value}


def _in_checker(section, mutate):
    def apply(doc):
        checker = dict(doc["checker"])
        checker[section] = mutate(checker[section])
        return {**doc, "checker": checker}

    return apply


def _in_version_2_results(mutate):
    """The ``results`` section is only read from a parent-format document."""

    def apply(doc):
        checker = dict(VERSION_2_SNAPSHOT["checker"])
        checker["results"] = mutate(checker["results"])
        return {**doc, "version": 2, "checker": checker}

    return apply


def _drop_result_key(results):
    # The alphabetically last switch: refused even when an earlier one —
    # possibly another partition's — parsed fine.
    last = sorted(results)[-1]
    broken = {k: v for k, v in results[last].items() if k != "switch_uid"}
    return {**results, last: broken}


def _break_result_rule(results):
    last = sorted(results)[-1]
    return {**results, last: {**results[last], "missing_rules": [{"vrf_scope": 1}]}}


MALFORMED_SNAPSHOTS = {
    "not-an-object": (lambda doc: [doc], "kind"),
    "no-checker": (_without("checker"), "checker"),
    "checker-not-an-object": (_with("checker", "state"), "checker"),
    "verdicts-not-an-object": (
        _in_checker("verdicts", list),
        "'checker': AttributeError: 'list' object has no attribute 'items'",
    ),
    "verdict-not-a-string": (
        _in_checker("verdicts", lambda verdicts: {uid: 7 for uid in verdicts}),
        "'checker': ValueError: verdicts must be strings",
    ),
    "result-without-switch-uid": (
        _in_version_2_results(_drop_result_key),
        "'checker': KeyError: 'switch_uid'",
    ),
    "result-rule-without-src-epg": (
        _in_version_2_results(_break_result_rule),
        "'checker': KeyError: 'src_epg'",
    ),
    "unknown-pending-event": (
        _with("pending_events", [{"kind": "from-the-future", "timestamp": 1}]),
        "pending_events",
    ),
    "tcam-changed-without-switch-uid": (
        _with("pending_events", [{"kind": "tcam-changed", "timestamp": 1, "lost": 2}]),
        "'pending_events': KeyError: 'switch_uid'",
    ),
    "tcam-changed-with-a-string-count": (
        _with(
            "pending_events",
            [{"kind": "tcam-changed", "timestamp": 1, "switch_uid": "s", "lost": "2"}],
        ),
        "'pending_events': ValueError: tcam-changed counts must be integers",
    ),
    "legacy-rule-lost-without-timestamp": (
        _with("pending_events", [{"kind": "rule-lost", "switch_uid": "s", "rule": {}}]),
        "'pending_events': KeyError: 'timestamp'",
    ),
    "incident-without-timestamps": (
        _with("incidents", {"incidents": [{"incident_id": "INC-1"}], "counter": 1}),
        "incidents",
    ),
    "incident-counter-not-an-int": (
        _with("incidents", {"incidents": [], "counter": "7"}),
        "incidents",
    ),
    "clock-not-an-int": (_with("clock", "noon"), "clock"),
}


class TestMalformedSnapshot:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
    def test_malformed_snapshot_is_rejected_before_any_state_changes(
        self, three_tier, case
    ):
        mutate, field = MALFORMED_SNAPSHOTS[case]
        controller = three_tier.controller
        source = NetworkMonitor(controller, debounce_ticks=1, partitions=2)
        source.start()
        _wipe(three_tier, "leaf-2")
        controller.clock.tick(2)
        assert source.poll().opened
        good = json.loads(json.dumps(source.snapshot()))
        source.close()
        # The document is from the future, so an accepted clock would tick.
        good["clock"] = controller.clock.peek() + 50
        bad = mutate(good)

        now = controller.clock.peek()
        with pytest.raises(ValueError, match=field):
            NetworkMonitor.from_snapshot(controller, bad)
        monitor = NetworkMonitor(controller, debounce_ticks=1, partitions=2)
        with pytest.raises(ValueError, match=field):
            monitor.restore(bad)
        assert controller.clock.peek() == now
        assert monitor.running is False
        assert len(monitor.store) == 0 and monitor.pending_events() == 0
        assert monitor.stats()["restores"] == 0

        # Nothing half-adopted: the same monitor still bootstraps cleanly.
        report = monitor.start()
        assert monitor.running
        assert monitor.stats()["full_checks"] == 2  # one per partition, no more
        fresh = ScoutSystem(controller).check()
        assert report.semantic_fingerprint() == fresh.semantic_fingerprint()
        assert [item.switch_uid for item in monitor.store.active()] == ["leaf-2"]
        monitor.close()


class TestSnapshotRoute:
    @pytest.fixture
    def served(self, three_tier):
        service = ScoutService(three_tier.controller, sync_audits=True)
        yield three_tier, service, TestClient(service)
        service.close()

    def test_snapshot_route_returns_restorable_state(self, served):
        scenario, service, client = served
        _wipe(scenario, "leaf-2")
        scenario.controller.clock.tick(2)
        assert client.post("/monitor/poll", json={}).status == 200
        response = client.post("/monitor/snapshot", json={})
        assert response.status == 200
        payload = response.json()
        assert payload["saved"] is None
        snap = payload["snapshot"]
        assert snap["kind"] == "monitor-snapshot"
        assert snap["incidents"]["incidents"]

    def test_snapshot_requires_a_running_monitor(self, served):
        _, _, client = served
        assert client.post("/monitor/stop", json={}).status == 200
        response = client.post("/monitor/snapshot", json={})
        assert response.status == 409

    def test_snapshot_rejects_bad_params(self, served):
        _, _, client = served
        for body in ({"bogus": 1}, {"path": 5}, {"path": ""}):
            response = client.post("/monitor/snapshot", json=body)
            assert response.status == 400, body

    def test_snapshot_path_writes_the_file(self, served, tmp_path):
        scenario, service, client = served
        target = tmp_path / "monitor-snapshot.json"
        response = client.post("/monitor/snapshot", json={"path": str(target)})
        assert response.status == 200
        assert response.json()["saved"] == str(target)
        on_disk = json.loads(target.read_text())
        assert on_disk["kind"] == "monitor-snapshot"
        assert not target.with_name(target.name + ".tmp").exists()

    @pytest.mark.parametrize(
        "where", ["missing-dir/snap.json", "file/snap.json", "", "nul\x00byte.json"]
    )
    def test_unwritable_snapshot_path_is_the_callers_400(self, served, tmp_path, where):
        _, service, client = served
        (tmp_path / "file").write_text("not a directory")
        before = service.monitor.stats()
        # "" is the directory itself: the temp file lands, the rename cannot.
        response = client.post(
            "/monitor/snapshot", json={"path": str(tmp_path / where)}
        )
        assert response.status == 400
        detail = response.json()["error"]["detail"]
        assert "cannot write snapshot" in detail and str(tmp_path) in detail
        assert "Error" in detail  # names the OSError, not just the path
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["file"]
        assert not os.path.exists(str(tmp_path / where) + ".tmp")
        assert service.monitor.running and service.monitor.stats() == before
        triggers = [bundle["trigger"] for bundle in service.recorder.dumps()]
        assert "http-500" not in triggers
        availability = client.get("/slo").json()["slos"]["http-availability"]
        assert availability["attainment"] == 1.0

    def test_service_restore_on_start_replaces_the_bootstrap(self, served):
        scenario, service, client = served
        _wipe(scenario, "leaf-2")
        scenario.controller.clock.tick(2)
        assert client.post("/monitor/poll", json={}).status == 200
        snap = client.post("/monitor/snapshot", json={}).json()["snapshot"]
        verdict = service.monitor.report().semantic_fingerprint()
        full_before = service.monitor.stats()["full_checks"]
        open_ids = {incident.incident_id for incident in service.monitor.store.active()}
        assert open_ids
        assert client.post("/monitor/stop", json={}).status == 200

        reborn = ScoutService(
            scenario.controller, sync_audits=True, restore_snapshot=snap
        )
        try:
            assert reborn.monitor.running
            stats = reborn.monitor.stats()
            assert stats["full_checks"] == full_before + 1
            assert stats["restores"] == 1
            restored_ids = {
                incident.incident_id for incident in reborn.monitor.store.active()
            }
            assert restored_ids == open_ids
            assert reborn.monitor.report().semantic_fingerprint() == verdict
        finally:
            reborn.close()

    def test_a_four_partition_snapshot_restores_into_one_partition(self, served):
        """Decision (i): whatever partition count wrote the document, the
        daemon restores it into one — one sweep, same verdict and incidents."""
        scenario, service, client = served
        assert client.post("/monitor/stop", json={}).status == 200
        sharded = NetworkMonitor(scenario.controller, debounce_ticks=1, partitions=4)
        sharded.start()
        _wipe(scenario, "leaf-2")
        scenario.controller.clock.tick(2)
        assert sharded.poll().opened
        snap = json.loads(json.dumps(sharded.snapshot()))
        assert snap["partitions"] == 4 and len(snap["partition_map"]["shards"]) == 4
        taken = sharded.stats()
        assert taken["full_checks"] == 4  # one bootstrap per partition
        verdict = sharded.report().semantic_fingerprint()
        open_ids = {incident.incident_id for incident in sharded.store.active()}
        sharded.close()

        reborn = ScoutService(
            scenario.controller, sync_audits=True, restore_snapshot=snap
        )
        try:
            assert reborn.monitor.running
            assert reborn.monitor.partitions == len(reborn.monitor.checkers) == 1
            restarted = TestClient(reborn)
            stats = restarted.get("/monitor/status").json()["stats"]
            assert stats["partitions"] == 1
            assert stats["full_checks"] == taken["full_checks"] + 1
            assert stats["dirty_switches"] == 0
            assert reborn.monitor.report().semantic_fingerprint() == verdict
            restored_ids = {item.incident_id for item in reborn.monitor.store.active()}
            assert restored_ids == open_ids
            assert restarted.post("/monitor/poll", json={}).json()["pass"] is None
        finally:
            reborn.close()

    def test_pass_count_continues_across_a_restart_on_every_surface(self, served):
        scenario, service, client = served
        for uid in ("leaf-2", "leaf-3"):
            _wipe(scenario, uid)
            scenario.controller.clock.tick(2)
            assert client.post("/monitor/poll", json={}).json()["pass"] is not None
        snap = client.post("/monitor/snapshot", json={}).json()["snapshot"]
        assert snap["passes"] == 2
        assert client.post("/monitor/stop", json={}).status == 200

        reborn = ScoutService(
            scenario.controller, sync_audits=True, restore_snapshot=snap
        )
        try:
            restarted = TestClient(reborn)
            status = restarted.get("/monitor/status").json()["stats"]
            health = restarted.get("/health").json()["components"]["monitor"]
            assert status["passes"] == health["metrics"]["passes"] == 2
            metrics = restarted.get("/metrics").text.splitlines()
            assert "repro_monitor_passes_total 2" in metrics
        finally:
            reborn.close()
