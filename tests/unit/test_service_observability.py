"""Correlation ids, flight records and health/SLO routes through the API."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.policy.objects import FilterEntry
from repro.service import ScoutService, TestClient, service_for_profile
from repro.workloads import three_tier_scenario


@pytest.fixture
def env():
    scenario = three_tier_scenario()
    service = ScoutService(scenario.controller, name="three-tier", sync_audits=True)
    yield SimpleNamespace(
        scenario=scenario, service=service, client=TestClient(service)
    )
    service.close()


def _break_leaf2(env, port: int = 700) -> None:
    victim = env.scenario.fabric.switch("leaf-2")
    removed = victim.tcam.remove_where(lambda rule: rule.port == port)
    assert removed
    env.scenario.controller.clock.tick(2)


class TestCorrelationHeaders:
    def test_every_response_carries_a_minted_corr_id(self, env):
        response = env.client.get("/healthz")
        corr = response.headers["X-Repro-Corr-Id"]
        assert corr.startswith("req-")
        second = env.client.get("/healthz")
        assert second.headers["X-Repro-Corr-Id"] != corr

    def test_inbound_corr_id_is_honored_and_echoed(self, env):
        response = env.client.request(
            "GET", "/healthz", headers={"X-Repro-Corr-Id": "corr-caller-7"}
        )
        assert response.headers["X-Repro-Corr-Id"] == "corr-caller-7"

    def test_request_spans_are_stamped_with_the_corr_id(self, env):
        response = env.client.request(
            "GET", "/healthz", headers={"X-Repro-Corr-Id": "corr-span-1"}
        )
        assert response.status == 200
        stamped = [
            recorded
            for recorded in env.service.tracer.spans()
            if recorded.attrs.get("corr_id") == "corr-span-1"
        ]
        assert [recorded.name for recorded in stamped] == ["http.request"]


class TestIncidentFlightRecord:
    def _open_incident(self, env):
        _break_leaf2(env)
        poll = env.client.post("/monitor/poll", json={"force": True})
        assert poll.status == 200
        opened = poll.json()["pass"]["opened"]
        assert len(opened) == 1
        return poll, opened[0]

    def test_incident_open_dumps_a_correlated_bundle(self, env):
        poll, incident = self._open_incident(env)
        corr = poll.headers["X-Repro-Corr-Id"]
        assert incident["corr_id"] == corr

        record = env.client.get(f"/incidents/{incident['incident_id']}/flightrecord")
        assert record.status == 200
        bundle = record.json()["flightrecord"]
        assert bundle["trigger"] == "incident-open"
        assert bundle["corr_id"] == corr
        assert bundle["incident_id"] == incident["incident_id"]
        assert bundle["context"]["switch"] == "leaf-2"

        # The poll's span tree shares the request's id — the in-place check
        # of the degraded leaf included, and nothing of the sharded engine:
        # the daemon runs the library-default monitor.  (The http.request
        # span itself is still open at dump time, so it cannot appear in its
        # own bundle; its stamping is asserted via the tracer.)
        assert env.service.monitor.max_workers is None
        names = {
            entry["name"]
            for entry in bundle["spans"]
            if entry.get("attrs", {}).get("corr_id") == corr
        }
        assert {"monitor.poll", "check.switch"} <= names
        assert not [n for n in names if n.startswith(("worker.", "parallel."))]

        # The change events that triggered the incident are in the ring.
        kinds = {entry["kind"] for entry in bundle["events"]}
        assert "bus.TcamChanged" in kinds

    def test_a_wiped_leaf_does_not_evict_what_preceded_it(self):
        """One event per TCAM transaction: the bundle dumped for a 1.3 k-rule
        wipe still holds the policy edit before it, and says how much went."""
        service = service_for_profile("simulation", sync_audits=True)
        try:
            client, controller = TestClient(service), service.controller
            target = next(iter(controller.policy.filters()))
            widened = target.entries + (FilterEntry(protocol="tcp", port=47000),)
            controller.modify_object(
                controller.policy.tenant_of(target.uid).name,
                dataclasses.replace(target, entries=widened),
            )
            controller.deploy(record_initial_changes=False)
            victim = controller.fabric.leaf_uids()[0]
            tcam = controller.fabric.switch(victim).tcam
            wiped = tcam.remove_where(lambda rule: True)
            assert len(wiped) > 512  # more rules than the event ring holds lines
            controller.clock.tick(2)
            poll = client.post("/monitor/poll", json={"force": True})
            opened = poll.json()["pass"]["opened"]
            assert [incident["switch_uid"] for incident in opened] == [victim]
            path = f"/incidents/{opened[0]['incident_id']}/flightrecord"
            events = client.get(path).json()["flightrecord"]["events"]
            edits = [e["detail"] for e in events if e["kind"] == "bus.PolicyChanged"]
            assert len(edits) == 1 and edits[0].endswith(f"modify {target.uid}")
            wipes = [
                e["detail"]
                for e in events
                if e["kind"] == "bus.TcamChanged" and f"-{len(wiped)}" in e["detail"]
            ]
            assert len(wipes) == 1 and f"{victim} +0 -{len(wiped)}" in wipes[0]
        finally:
            service.close()

    def test_unknown_incident_is_404(self, env):
        response = env.client.get("/incidents/INC-9999/flightrecord")
        assert response.status == 404
        assert "unknown incident" in response.json()["error"]["detail"]

    def test_incident_without_retained_record_is_404(self, env):
        _, incident = self._open_incident(env)
        # Age the bundle out by replacing the recorder's dump store.
        env.service.recorder._by_incident.clear()
        path = f"/incidents/{incident['incident_id']}/flightrecord"
        response = env.client.get(path)
        assert response.status == 404
        assert "no flight record retained" in response.json()["error"]["detail"]


class TestFailureDumps:
    def test_handler_500_dumps_a_bundle(self, env):
        def explode(**kwargs):
            raise RuntimeError("audit pipeline broke")

        env.service.system.localize = explode
        response = env.client.post("/audits", json={"sync": True})
        assert response.status == 500
        bundle = env.service.recorder.dumps()[-1]
        assert bundle["trigger"] == "http-500"
        assert bundle["corr_id"] == response.headers["X-Repro-Corr-Id"]
        assert bundle["context"]["path"] == "/audits"
        assert bundle["context"]["status"] == 500


class TestHealthRoutes:
    def test_health_reports_every_component(self, env):
        response = env.client.get("/health")
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert sorted(payload["components"]) == [
            "bus",
            "job-queues",
            "monitor",
        ]
        monitor = payload["components"]["monitor"]
        assert monitor["status"] == "ok"
        assert monitor["metrics"]["running"] is True

    def test_one_wiped_leaf_is_a_backlog_of_one(self):
        """The bus probe counts things that happened, not rules they moved."""
        service = service_for_profile("small", sync_audits=True)
        try:
            victim = service.controller.fabric.switch("leaf-1")
            assert len(victim.tcam.remove_where(lambda rule: True)) > 100
            bus = TestClient(service).get("/health").json()["components"]["bus"]
            assert bus["status"] == "ok"
            assert bus["metrics"]["backlog"] == 1
        finally:
            service.close()

    def test_stopped_monitor_fails_the_rollup(self, env):
        assert env.client.post("/monitor/stop").status == 200
        payload = env.client.get("/health").json()
        assert payload["status"] == "failing"
        assert payload["components"]["monitor"]["status"] == "failing"

    def test_slo_route_tracks_requests_and_jobs(self, env):
        env.client.get("/healthz")
        assert env.client.post("/audits", json={"sync": True}).status == 200
        payload = env.client.get("/slo").json()
        slos = payload["slos"]
        assert sorted(slos) == [
            "http-availability",
            "job-success",
            "monitor-freshness",
        ]
        availability = slos["http-availability"]
        assert availability["window"] >= 2
        assert availability["attainment"] == 1.0
        assert availability["status"] == "ok"
        assert slos["job-success"]["window"] == 1
        assert slos["job-success"]["attainment"] == 1.0

    def test_failed_jobs_burn_the_job_slo(self, env):
        def explode(**kwargs):
            raise RuntimeError("audit pipeline broke")

        env.service.system.localize = explode
        env.client.post("/audits", json={"sync": True})
        snapshot = env.service.slo.snapshot("job-success")
        assert snapshot["window"] == 1
        assert snapshot["attainment"] == 0.0
        assert snapshot["status"] == "failing"

    def test_metrics_expose_health_and_slo_gauges(self, env):
        text = env.client.get("/metrics").text
        assert 'repro_health_status{component="monitor"} 0' in text
        assert 'repro_slo_attainment{slo="http-availability"} 1' in text
        assert 'repro_slo_target{slo="job-success"} 0.99' in text
        assert 'repro_slo_burn_rate{slo="monitor-freshness"} 0' in text
