"""Tests for the service trace surface: GET /traces and repro_stage_seconds."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.service import ScoutService, TestClient
from repro.workloads import three_tier_scenario


@pytest.fixture
def env():
    scenario = three_tier_scenario()
    service = ScoutService(scenario.controller, name="three-tier", sync_audits=True)
    yield SimpleNamespace(
        scenario=scenario, service=service, client=TestClient(service)
    )
    service.close()


class TestGetTraces:
    def test_audit_spans_land_in_the_service_trace(self, env):
        # A healthy leaf is an identity proof; the engine spans need a miss.
        tcam = env.scenario.fabric.switch("leaf-2").tcam
        tcam.write([tcam.match_keys()[0]], {})
        audit = env.client.post("/audits", json={})
        assert audit.status == 200
        response = env.client.get("/traces")
        assert response.status == 200
        payload = response.json()
        assert payload["enabled"] is True
        assert payload["span_count"] > 0
        stage_names = {stat["name"] for stat in payload["attribution"]}
        # The audit pipeline's stages appear in the service-wide attribution.
        assert "check.switch" in stage_names
        assert "verify.ap.build" in stage_names
        assert len(payload["spans"]) <= 100

    def test_limit_caps_raw_spans_not_attribution(self, env):
        env.client.post("/audits", json={})
        limited = env.client.get("/traces?limit=2").json()
        assert len(limited["spans"]) == 2
        assert limited["span_count"] > 2
        assert limited["attribution"]
        none = env.client.get("/traces?limit=0").json()
        assert none["spans"] == []
        assert none["attribution"]

    @pytest.mark.parametrize("bad", ["abc", "-1", "1.5"])
    def test_bad_limit_is_rejected(self, env, bad):
        response = env.client.get(f"/traces?limit={bad}")
        assert response.status == 400
        assert "limit" in response.json()["error"]["detail"]


class TestStageMetrics:
    def test_stage_summary_appears_on_metrics(self, env):
        env.client.post("/audits", json={})
        text = env.client.get("/metrics").text
        assert "# TYPE repro_stage_seconds summary" in text
        assert 'repro_stage_seconds_count{stage="check.switch"}' in text
        # Quantile series carry the stage label plus the quantile label.
        assert 'repro_stage_seconds{quantile="0.5",stage="check.switch"}' in text

    def test_monitor_poll_records_spans(self, env):
        victim = env.scenario.fabric.switch("leaf-2")
        assert victim.tcam.remove_where(lambda rule: rule.port == 700)
        env.scenario.controller.clock.tick(2)
        poll = env.client.post("/monitor/poll", json={"force": True})
        assert poll.status == 200
        stage_names = {
            stat["name"]
            for stat in env.client.get("/traces").json()["attribution"]
        }
        assert "monitor.poll" in stage_names
