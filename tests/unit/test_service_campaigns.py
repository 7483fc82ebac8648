"""Unit tests for the service-side campaign endpoint (POST /campaigns).

What is specific to campaigns; the contract every job kind shares (unknown
fields, 404s, listing, async override, failed runners, metrics) is tested
once over the whole job table in ``test_service_api.py::TestJobContract``.
"""

import pytest

from repro.service import TestClient, service_for_profile


@pytest.fixture(scope="module")
def service():
    svc = service_for_profile("small", sync_audits=True)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def client(service):
    return TestClient(service)


def _small_spec(**overrides):
    body = {
        "name": "api-campaign",
        "profiles": ["small"],
        "seeds": [1],
        "faults": ["object-fault"],
        "engines": ["serial"],
    }
    body.update(overrides)
    return body


class TestPostCampaign:
    def test_sync_campaign_returns_finished_job(self, client):
        response = client.post("/campaigns", json=_small_spec())
        assert response.status == 200
        job = response.json()["job"]
        assert job["job_id"].startswith("CMP-")
        assert job["status"] == "done"
        summary = job["result"]["summary"]
        assert summary["cells"] == 1
        assert summary["fingerprint_chain"]
        assert job["result"]["cells"][0]["result"]["fingerprint"]

    def test_campaign_report_matches_direct_run(self, client):
        from repro.campaign import CampaignSpec, run_campaign

        body = _small_spec(faults=["multi-fault:2"])
        response = client.post("/campaigns", json=body)
        api_summary = response.json()["job"]["result"]["summary"]
        direct = run_campaign(
            CampaignSpec.from_dict({k: v for k, v in body.items() if k != "sync"})
        )
        assert api_summary["fingerprint_chain"] == direct.fingerprint_chain()

    def test_bad_spec_rejected(self, client):
        response = client.post("/campaigns", json=_small_spec(profiles=["atlantis"]))
        assert response.status == 400
        assert "bad campaign spec" in response.json()["error"]["detail"]

    def test_removed_parallel_engine_mode_is_a_400_naming_it(self, client):
        response = client.post("/campaigns", json=_small_spec(engines=["parallel"]))
        assert response.status == 400
        assert "unknown engine mode 'parallel'" in response.json()["error"]["detail"]

    def test_wrong_typed_spec_fields_are_a_400_not_a_500(self, client):
        null_count = _small_spec(faults=[{"kind": "object-fault", "count": None}])
        response = client.post("/campaigns", json=null_count)
        assert response.status == 400
        assert "bad campaign spec" in response.json()["error"]["detail"]
        scalar_kinds = _small_spec(faults=[{"kind": "object-fault", "fault_kinds": 5}])
        assert client.post("/campaigns", json=scalar_kinds).status == 400

    def test_oversized_grid_rejected(self, client):
        response = client.post(
            "/campaigns", json=_small_spec(seeds=list(range(1, 100)))
        )
        assert response.status == 400
        assert "caps at" in response.json()["error"]["detail"]

    def test_oversized_churn_cell_rejected(self, client):
        response = client.post(
            "/campaigns", json=_small_spec(faults=["churn:100000"])
        )
        assert response.status == 400
        assert "churn fault runs" in response.json()["error"]["detail"]

