"""Benchmark: service request throughput and synchronous audit latency.

The operator service claims the dispatch path (routing, handler, incident
serialization, metrics accounting) is cheap enough to sit in front of every
query an operator tool makes.  This benchmark boots a service on the
``small`` profile with one real open incident and measures:

* **/incidents throughput** — repeated ``GET /incidents?status=open``
  through the in-process client (the exact dispatch path the WSGI daemon
  serves, minus socket I/O);
* **sync audit latency** — ``POST /audits`` with inline execution, the
  service's slowest endpoint.

With ``REPRO_BENCH_JSON`` set, results land in ``BENCH_service.json``
(validated by ``check_bench_json.py``).
"""

from __future__ import annotations

import statistics
import time

from repro.service import TestClient, service_for_profile

from conftest import emit_bench_json, full_scale

#: In-process dispatch comfortably clears thousands of requests per second;
#: the floor only has to catch a pathological regression (e.g. an audit
#: accidentally running per read).
RPS_FLOOR = 200.0
#: A sync audit at the small profile is milliseconds of real work.
AUDIT_P50_CEILING_SECONDS = 2.0


def _open_one_incident(service, client) -> None:
    """Drop a few rules on one leaf so /incidents serves a real payload."""
    fabric = service.controller.fabric
    victim = fabric.switch(sorted(fabric.switches)[0])
    budget = {"left": 3}

    def first_three(rule) -> bool:
        if budget["left"] > 0:
            budget["left"] -= 1
            return True
        return False

    removed = victim.tcam.remove_where(first_three)
    assert removed, "the victim leaf must actually lose rules"
    service.controller.clock.tick(2)
    poll = client.post("/monitor/poll", json={"force": True})
    assert poll.status == 200
    assert poll.json()["pass"]["opened"], "the monitor must open an incident"


def test_service_throughput_and_audit_latency():
    service = service_for_profile("small", sync_audits=True)
    client = TestClient(service)
    _open_one_incident(service, client)

    # -- /incidents throughput ------------------------------------------ #
    rounds = 2000 if full_scale() else 400
    warmup = client.get("/incidents?status=open")
    assert warmup.status == 200 and warmup.json()["incidents"]
    start = time.perf_counter()
    for _ in range(rounds):
        response = client.get("/incidents?status=open")
        assert response.status == 200
    elapsed = time.perf_counter() - start
    rps = rounds / elapsed

    # -- sync audit latency --------------------------------------------- #
    audit_rounds = 5 if full_scale() else 3
    latencies = []
    for _ in range(audit_rounds):
        start = time.perf_counter()
        response = client.post("/audits", json={"sync": True})
        latencies.append(time.perf_counter() - start)
        assert response.status == 200
        assert response.json()["job"]["status"] == "done"
    audit_p50 = statistics.median(latencies)

    metrics = client.get("/metrics")
    assert metrics.status == 200
    assert "repro_audit_jobs_total" in metrics.text

    payload = {
        "profile": "small",
        "incident_requests": rounds,
        "requests_per_second": round(rps, 1),
        "audit_runs": audit_rounds,
        "audit_p50_ms": round(audit_p50 * 1000.0, 3),
    }
    emitted = emit_bench_json("service", payload)
    print(
        f"\nservice: {rps:,.0f} req/s over GET /incidents, "
        f"sync audit p50 {audit_p50 * 1000.0:.1f} ms"
    )
    if emitted:
        print(f"wrote {emitted}")

    service.close()
    assert rps >= RPS_FLOOR, f"dispatch throughput regressed: {rps:.0f} req/s"
    assert audit_p50 <= AUDIT_P50_CEILING_SECONDS, (
        f"sync audit p50 regressed: {audit_p50:.3f}s"
    )
