"""Unit tests for the ``/churn`` service endpoints.

What is specific to churn soaks; the contract every job kind shares is
tested once over the job table in ``test_service_api.py::TestJobContract``.
"""

import pytest

from repro.service.app import MAX_CHURN_EVENTS, service_for_profile
from repro.service.testing import TestClient


@pytest.fixture(scope="module")
def client():
    service = service_for_profile("small", sync_audits=True)
    yield TestClient(service)
    service.close()


class TestPostChurn:
    def test_sync_job_returns_finished_report(self, client):
        response = client.post(
            "/churn", json={"profile": "small", "events": 20, "seed": 5}
        )
        assert response.status == 200
        job = response.json()["job"]
        assert job["status"] == "done"
        result = job["result"]
        assert result["divergence_count"] == 0
        assert result["events_applied"] + result["skipped"] == 20
        assert result["final_fingerprint"]
        assert result["checkpoints"][-1]["diverged"] is False

    def test_same_seed_reproduces_the_same_report(self, client):
        payload = {"profile": "small", "events": 15, "seed": 77}
        first = client.post("/churn", json=payload).json()["job"]["result"]
        second = client.post("/churn", json=payload).json()["job"]["result"]
        assert first["final_fingerprint"] == second["final_fingerprint"]
        assert first["records"] == second["records"]

    def test_unknown_profile_is_a_400(self, client):
        response = client.post("/churn", json={"profile": "nope"})
        assert response.status == 400
        assert "no churn profile" in response.json()["error"]["detail"]

    def test_missing_profile_is_a_400(self, client):
        assert client.post("/churn", json={"events": 5}).status == 400

    @pytest.mark.parametrize("events", [0, -3, "ten", True])
    def test_bad_events_is_a_400(self, client, events):
        response = client.post("/churn", json={"profile": "small", "events": events})
        assert response.status == 400

    def test_stream_length_is_capped(self, client):
        response = client.post(
            "/churn", json={"profile": "small", "events": MAX_CHURN_EVENTS + 1}
        )
        assert response.status == 400
        assert "caps at" in response.json()["error"]["detail"]

    def test_bad_seed_is_a_400(self, client):
        response = client.post("/churn", json={"profile": "small", "seed": "x"})
        assert response.status == 400

    @pytest.mark.parametrize("interval", [0, -5, "often"])
    def test_bad_checkpoint_interval_is_a_400_not_a_failed_job(self, client, interval):
        response = client.post(
            "/churn", json={"profile": "small", "checkpoint_interval": interval}
        )
        assert response.status == 400

