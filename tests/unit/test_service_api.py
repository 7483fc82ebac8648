"""In-process API tests: every route's 200/202/400/404/409 paths."""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.service import ScoutService, TestClient, WsgiApp
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
    """Drop leaf-2's App-DB rules and advance past the debounce window."""
    victim = env.scenario.fabric.switch("leaf-2")
    removed = victim.tcam.remove_where(lambda rule: rule.port == port)
    assert removed
    env.scenario.controller.clock.tick(2)


def _open_incident(env) -> dict:
    _break_leaf2(env)
    poll = env.client.post("/monitor/poll", json={"force": True})
    assert poll.status == 200
    opened = poll.json()["pass"]["opened"]
    assert len(opened) == 1
    return opened[0]


class TestHealth:
    def test_healthz(self, env):
        response = env.client.get("/healthz")
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["service"] == "three-tier"
        assert payload["switches"] == 3
        assert payload["monitor_running"] is True
        assert payload["open_incidents"] == 0


class TestAudits:
    def test_sync_audit_returns_finished_job(self, env):
        response = env.client.post("/audits", json={})
        assert response.status == 200
        job = response.json()["job"]
        assert job["status"] == "done"
        assert job["error"] is None
        assert job["result"]["consistent"] is True

    def test_parallel_audit_fingerprint_matches_direct_check(self, env):
        _break_leaf2(env)
        response = env.client.post(
            "/audits", json={"parallel": True, "max_workers": 2}
        )
        job = response.json()["job"]
        assert job["status"] == "done"
        direct = env.service.system.check().fingerprint()
        assert job["result"]["fingerprint"] == direct
        assert job["result"]["equivalence"]["fingerprint"] == direct
        assert job["result"]["hypothesis"]["entries"]

    def test_poll_and_list(self, env):
        job_id = env.client.post("/audits", json={}).json()["job"]["job_id"]
        polled = env.client.get(f"/audits/{job_id}")
        assert polled.status == 200
        assert polled.json()["job"]["status"] == "done"
        listing = env.client.get("/audits")
        assert listing.status == 200
        jobs = listing.json()["jobs"]
        assert [job["job_id"] for job in jobs] == [job_id]
        assert "result" not in jobs[0]

    def test_unknown_job_is_404(self, env):
        response = env.client.get("/audits/AUD-9999")
        assert response.status == 404
        assert response.json()["error"]["status"] == 404

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"bogus": 1}, "unknown audit parameter"),
            ({"scope": "network"}, "scope"),
            ({"max_workers": 0}, "max_workers"),
            ({"max_workers": "two"}, "max_workers"),
            ({"max_workers": True}, "max_workers"),
            ({"engine": "auto"}, "engine must be one of ap, bdd"),
            ({"engine": "hash"}, "engine must be one of ap, bdd"),
        ],
    )
    def test_bad_audit_parameters_are_400(self, env, body, fragment):
        response = env.client.post("/audits", json=body)
        assert response.status == 400
        assert fragment in response.json()["error"]["detail"]

    def test_async_queue_executes_on_worker_thread(self):
        scenario = three_tier_scenario()
        service = ScoutService(scenario.controller, sync_audits=False)
        try:
            client = TestClient(service)
            response = client.post("/audits", json={})
            assert response.status == 202
            job_id = response.json()["job"]["job_id"]
            service.queue.join()
            polled = client.get(f"/audits/{job_id}").json()["job"]
            assert polled["status"] == "done"
            assert polled["result"]["fingerprint"]
        finally:
            service.close()

    def test_per_request_sync_override_on_async_service(self):
        scenario = three_tier_scenario()
        service = ScoutService(scenario.controller, sync_audits=False)
        try:
            response = TestClient(service).post("/audits", json={"sync": True})
            assert response.status == 200
            assert response.json()["job"]["status"] == "done"
        finally:
            service.close()

    def test_explicit_sync_false_forces_async_on_sync_service(self, env):
        response = env.client.post("/audits", json={"sync": False})
        assert response.status == 202
        job_id = response.json()["job"]["job_id"]
        env.service.queue.join()
        polled = env.client.get(f"/audits/{job_id}").json()["job"]
        assert polled["status"] == "done"


class TestIncidents:
    def test_incident_flow_with_filters(self, env):
        incident = _open_incident(env)
        assert incident["switch_uid"] == "leaf-2"

        listing = env.client.get("/incidents").json()["incidents"]
        assert len(listing) == 1
        assert env.client.get("/incidents?status=open").json()["incidents"]
        assert env.client.get("/incidents?status=resolved").json()["incidents"] == []
        assert env.client.get("/incidents?switch=leaf-2").json()["incidents"]
        assert env.client.get("/incidents?switch=leaf-1").json()["incidents"] == []

        one = env.client.get(f"/incidents/{incident['incident_id']}")
        assert one.status == 200
        assert one.json()["incident"]["incident_id"] == incident["incident_id"]

    def test_unknown_incident_is_404(self, env):
        assert env.client.get("/incidents/INC-9999").status == 404
        assert env.client.post("/incidents/INC-9999/resolve").status == 404

    def test_bad_status_filter_is_400(self, env):
        response = env.client.get("/incidents?status=bogus")
        assert response.status == 400
        assert "bogus" in response.json()["error"]["detail"]

    def test_resolve_then_resolve_again_conflicts(self, env):
        incident = _open_incident(env)
        first = env.client.post(f"/incidents/{incident['incident_id']}/resolve")
        assert first.status == 200
        assert first.json()["incident"]["status"] == "resolved"
        second = env.client.post(f"/incidents/{incident['incident_id']}/resolve")
        assert second.status == 409
        assert "already resolved" in second.json()["error"]["detail"]
        resolved = env.client.get("/incidents?status=resolved").json()["incidents"]
        assert len(resolved) == 1


class TestMonitor:
    def test_status_reports_running_and_stats(self, env):
        response = env.client.get("/monitor/status")
        assert response.status == 200
        payload = response.json()
        assert payload["running"] is True
        assert "full_checks" in payload["stats"]

    def test_poll_without_events_is_null_pass(self, env):
        response = env.client.post("/monitor/poll", json={"force": True})
        assert response.status == 200
        assert response.json()["pass"] is None

    def test_poll_detects_and_resolves(self, env):
        incident = _open_incident(env)
        victim = env.scenario.fabric.switch("leaf-2")
        victim.sync_tcam()
        env.scenario.controller.clock.tick(2)
        poll = env.client.post("/monitor/poll").json()
        resolved = poll["pass"]["resolved"]
        assert [entry["incident_id"] for entry in resolved] == [
            incident["incident_id"]
        ]

    def test_start_stop_lifecycle_conflicts(self, env):
        assert env.client.post("/monitor/start").status == 409
        assert env.client.post("/monitor/stop").status == 200
        assert env.client.post("/monitor/stop").status == 409
        assert env.client.post("/monitor/poll").status == 409
        restarted = env.client.post("/monitor/start")
        assert restarted.status == 200
        assert restarted.json()["baseline"]["switches"] == 3


class TestMetrics:
    def test_metrics_exposition(self, env):
        env.client.get("/healthz")
        env.client.post("/audits", json={})
        _open_incident(env)
        response = env.client.get("/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.text
        assert 'repro_http_requests_total{method="GET",status="200"}' in text
        assert 'repro_audit_jobs_total{status="done"} 1' in text
        assert "repro_audit_latency_seconds_count 1" in text
        assert "repro_incidents_open 1" in text
        assert "repro_switches 3" in text


class TestWsgiAdapter:
    def _call(self, env, environ):
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = dict(headers)

        body = b"".join(WsgiApp(env.service)(environ, start_response))
        return captured, body

    def test_get_roundtrip(self, env):
        captured, body = self._call(
            env,
            {"REQUEST_METHOD": "GET", "PATH_INFO": "/healthz", "QUERY_STRING": ""},
        )
        assert captured["status"] == "200 OK"
        assert captured["headers"]["Content-Type"] == "application/json"
        assert captured["headers"]["Content-Length"] == str(len(body))
        assert json.loads(body)["status"] == "ok"

    def test_query_string_filtering(self, env):
        _open_incident(env)
        captured, body = self._call(
            env,
            {
                "REQUEST_METHOD": "GET",
                "PATH_INFO": "/incidents",
                "QUERY_STRING": "status=resolved",
            },
        )
        assert captured["status"] == "200 OK"
        assert json.loads(body)["incidents"] == []

    def test_post_json_body(self, env):
        raw = json.dumps({"sync": True}).encode("utf-8")
        captured, body = self._call(
            env,
            {
                "REQUEST_METHOD": "POST",
                "PATH_INFO": "/audits",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": str(len(raw)),
                "wsgi.input": io.BytesIO(raw),
            },
        )
        assert captured["status"] == "200 OK"
        assert json.loads(body)["job"]["status"] == "done"

    @pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]"])
    def test_malformed_body_is_400_without_dispatch(self, env, raw):
        captured, body = self._call(
            env,
            {
                "REQUEST_METHOD": "POST",
                "PATH_INFO": "/audits",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": str(len(raw)),
                "wsgi.input": io.BytesIO(raw),
            },
        )
        assert captured["status"].startswith("400")
        assert json.loads(body)["error"]["status"] == 400
