"""In-process API tests: every route's 200/202/400/404/409 paths."""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.service import ScoutService, TestClient, WsgiApp
from repro.service.app import JOB_KINDS
from repro.service.wsgi import MAX_BODY_BYTES
from repro.workloads import three_tier_scenario

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "http-api.md"

#: ``### `GET /healthz` `` — how docs/http-api.md titles one route.
ROUTE_HEADING = re.compile(r"^#{2,4}\s+`([A-Z]+)\s+(/\S*)`\s*$", re.MULTILINE)

#: The smallest valid ``POST`` body per job kind (a new kind needs one here).
JOB_BODIES = {
    "audit": {},
    "campaign": {
        "name": "api-campaign",
        "profiles": ["small"],
        "seeds": [1],
        "faults": ["object-fault"],
        "engines": ["serial"],
    },
    "churn": {"profile": "small", "events": 5},
}

each_job_kind = pytest.mark.parametrize("kind", JOB_KINDS, ids=lambda kind: kind.name)


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

    def test_audit_fingerprint_matches_direct_check(self, env):
        _break_leaf2(env)
        response = env.client.post("/audits", json={})
        job = response.json()["job"]
        assert job["status"] == "done"
        direct = env.service.system.check().fingerprint()
        assert job["result"]["fingerprint"] == direct
        assert job["result"]["equivalence"]["fingerprint"] == direct
        assert job["result"]["hypothesis"]["entries"]

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"bogus": 1}, "unknown audit parameter"),
            ({"scope": "network"}, "scope"),
            # Removed fields are refused by name, never silently ignored.
            ({"parallel": True}, "unknown audit parameter(s): parallel"),
            ({"max_workers": 2}, "unknown audit parameter(s): max_workers"),
            (
                {"parallel": False, "max_workers": None},
                "unknown audit parameter(s): max_workers, parallel",
            ),
            ({"engine": "auto"}, "engine must be one of ap, bdd"),
            ({"engine": "hash"}, "engine must be one of ap, bdd"),
            # Booleans are JSON booleans: nothing is coerced by truthiness.
            ({"correlate": "false"}, "correlate must be a boolean, got 'false'"),
            ({"correlate": 0}, "correlate must be a boolean, got 0"),
            ({"sync": "no"}, "sync must be a boolean, got 'no'"),
        ],
    )
    def test_bad_audit_parameters_are_400(self, env, body, fragment):
        verdict_before = env.service.monitor.report().fingerprint()
        response = env.client.post("/audits", json=body)
        assert response.status == 400
        assert fragment in response.json()["error"]["detail"]
        # A rejected request ran nothing and queued nothing.
        assert env.client.get("/audits").json()["jobs"] == []
        assert env.service.monitor.report().fingerprint() == verdict_before

    def test_async_queue_executes_on_worker_thread(self):
        scenario = three_tier_scenario()
        service = ScoutService(scenario.controller, sync_audits=False)
        try:
            client = TestClient(service)
            response = client.post("/audits", json={})
            assert response.status == 202
            job_id = response.json()["job"]["job_id"]
            service.queues["audit"].join()
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


class TestJobContract:
    """What every row of the job table answers, whatever the job does."""

    @each_job_kind
    def test_unknown_field_is_400_naming_the_kind(self, env, kind):
        body = dict(JOB_BODIES[kind.name], warp_factor=9)
        response = env.client.post(kind.route, json=body)
        assert response.status == 400
        detail = response.json()["error"]["detail"]
        assert f"unknown {kind.name} parameter" in detail
        assert "warp_factor" in detail
        assert env.service.queues[kind.name].jobs() == []

    @each_job_kind
    def test_unknown_id_is_404(self, env, kind):
        response = env.client.get(f"{kind.route}/{kind.prefix}-9999")
        assert response.status == 404
        assert response.json()["error"]["status"] == 404

    @each_job_kind
    def test_sync_job_polls_lists_and_counts_under_the_kind(self, env, kind):
        body = dict(JOB_BODIES[kind.name], sync=True)
        response = env.client.post(kind.route, json=body)
        assert response.status == 200
        job = response.json()["job"]
        assert job["status"] == "done"
        assert job["error"] is None
        assert job["result"]
        assert job["job_id"].startswith(kind.prefix + "-")

        polled = env.client.get(f"{kind.route}/{job['job_id']}")
        assert polled.status == 200
        assert polled.json()["job"]["job_id"] == job["job_id"]
        assert polled.json()["job"]["status"] == "done"

        listing = env.client.get(kind.route)
        assert listing.status == 200
        jobs = listing.json()["jobs"]
        assert [entry["job_id"] for entry in jobs] == [job["job_id"]]
        assert "result" not in jobs[0]

        text = env.client.get("/metrics").text
        assert f'repro_{kind.name}_jobs_total{{status="done"}} 1' in text
        assert f"repro_{kind.name}_latency_seconds_count 1" in text

    @each_job_kind
    def test_sync_false_queues_the_job(self, env, kind):
        body = dict(JOB_BODIES[kind.name], sync=False)
        response = env.client.post(kind.route, json=body)
        assert response.status == 202
        job_id = response.json()["job"]["job_id"]
        env.service.queues[kind.name].join()
        polled = env.client.get(f"{kind.route}/{job_id}").json()["job"]
        assert polled["status"] == "done"

    @each_job_kind
    def test_raising_runner_is_a_500_with_a_failed_job(self, env, kind):
        def exploding_runner(params):
            raise RuntimeError("boom")

        env.service.queues[kind.name]._runner = exploding_runner
        body = dict(JOB_BODIES[kind.name], sync=True)
        response = env.client.post(kind.route, json=body)
        assert response.status == 500
        job = response.json()["job"]
        assert job["status"] == "failed"
        assert "boom" in job["error"]
        text = env.client.get("/metrics").text
        assert f'repro_{kind.name}_jobs_total{{status="failed"}} 1' in text

    def test_job_queues_health_reports_pending_per_kind(self, env):
        health = env.client.get("/health").json()
        assert health["components"]["job-queues"]["metrics"] == {
            "pending": 0,
            "audit_pending": 0,
            "campaign_pending": 0,
            "churn_pending": 0,
        }


class TestRouteTable:
    def test_router_and_api_reference_list_the_same_routes(self, env):
        """A route without a heading, or a heading without a route, fails here."""
        live = {(route.method, route.pattern) for route in env.service.router.routes}
        documented = set(ROUTE_HEADING.findall(API_DOC.read_text()))
        assert len(live) == len(env.service.router.routes) == 23
        assert live - documented == set(), "registered but not documented"
        assert documented - live == set(), "documented but not registered"

    @pytest.mark.parametrize("body", [[1, 2], "str", 7, True])
    def test_every_post_route_rejects_a_non_object_body(self, env, body):
        routes = env.service.router.routes
        posts = [route for route in routes if route.method == "POST"]
        assert len(posts) >= 8
        for route in posts:
            path = re.sub(r"\{\w+\}", "INC-0001", route.pattern)
            response = env.client.post(path, json=body)
            assert response.status == 400, route.pattern
            detail = response.json()["error"]["detail"]
            assert detail == "request body must be a JSON object", route.pattern


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

    def test_force_must_be_a_json_boolean(self, env):
        _break_leaf2(env)
        response = env.client.post("/monitor/poll", json={"force": "false"})
        assert response.status == 400
        assert "force must be a boolean, got 'false'" in (
            response.json()["error"]["detail"]
        )
        assert env.service.monitor.pending_events() > 0  # nothing was polled

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

    @pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]", b"\xff\xfe\x00"])
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

    @pytest.mark.parametrize(
        "length, status",
        [
            ("abc", 400),
            ("-1", 400),
            ("9" * 5000, 400),
            (str(MAX_BODY_BYTES + 1), 413),
        ],
    )
    def test_bad_content_length_is_a_structured_4xx(self, env, length, status):
        stream = io.BytesIO(b'{"sync": true}')
        captured, body = self._call(
            env,
            {
                "REQUEST_METHOD": "POST",
                "PATH_INFO": "/audits",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": length,
                "wsgi.input": stream,
            },
        )
        assert captured["status"].startswith(str(status))
        error = json.loads(body)["error"]
        assert error["status"] == status
        assert "Content-Length" in error["detail"] or "limit" in error["detail"]
        assert stream.tell() == 0, "a refused body must not be read"
        assert env.service.queues["audit"].jobs() == []
