"""Monitor snapshot/restore: resume after a restart with zero full sweeps."""

from __future__ import annotations

import json

import pytest

from repro.core import ScoutSystem
from repro.online import NetworkMonitor
from repro.service import ScoutService, TestClient


def _wipe(scenario, uid, port=700):
    removed = scenario.fabric.switch(uid).tcam.remove_where(
        lambda rule: rule.port == port
    )
    assert removed
    return removed


class TestSnapshotRestore:
    def test_round_trip_resumes_without_a_full_sweep(self, three_tier):
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
        verdict = monitor.report().semantic_fingerprint()
        snap = json.loads(json.dumps(monitor.snapshot(), sort_keys=True))
        monitor.stop()
        # A document written before the engine ladder collapsed: labels are
        # opaque strings, not a vocabulary the restore validates.
        results = snap["checker"]["results"]
        results["leaf-1"]["engine"] = "hash"
        results["leaf-2"]["engine"] = "bdd"

        restored = NetworkMonitor.from_snapshot(three_tier.controller, snap)
        assert restored.running
        assert restored.report().results["leaf-1"].engine == "hash"
        stats = restored.stats()
        # The snapshot's bootstrap is the only full sweep there ever was.
        assert stats["full_checks"] == 1
        assert stats["restores"] == 1
        assert restored.pending_events() == pending
        assert restored.report().semantic_fingerprint() == verdict

        # The incident came through byte-for-byte, still open, in a store
        # that keeps allocating fresh ids after it.
        twin = restored.store.get(incident.incident_id)
        assert twin is not None and twin.is_open
        assert twin.to_dict() == incident.to_dict()

        # The carried batch processes exactly as it would have.
        three_tier.controller.clock.tick(2)
        result = restored.poll()
        assert [opened.switch_uid for opened in result.opened] == ["leaf-3"]
        assert restored.stats()["full_checks"] == 1
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
        with pytest.raises(ValueError, match="version"):
            monitor.restore({**snap, "version": 999})
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
        assert resharded.stats()["full_checks"] == 1
        assert resharded.report().semantic_fingerprint() == verdict
        # The restored state drives the lifecycle across the new shards: a
        # repair resolves the carried incident without any full sweep.
        three_tier.fabric.switch("leaf-2").sync_tcam()
        three_tier.controller.clock.tick(2)
        result = resharded.poll()
        assert [done.incident_id for done in result.resolved] == [incident.incident_id]
        assert resharded.stats()["full_checks"] == 1
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

    def test_service_restore_on_start_skips_the_bootstrap(self, served):
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
            assert stats["full_checks"] == full_before
            assert stats["restores"] == 1
            restored_ids = {
                incident.incident_id for incident in reborn.monitor.store.active()
            }
            assert restored_ids == open_ids
            assert reborn.monitor.report().semantic_fingerprint() == verdict
        finally:
            reborn.close()
