#!/usr/bin/env python3
"""Operate SCOUT through the service API: fault → incident → audit → repair.

The other use cases call library APIs directly; this one drives the same
fault-injection story end-to-end over the HTTP/JSON surface an operator (or
a paging pipeline) would use:

1. a :class:`~repro.service.ScoutService` wraps the deployed 3-tier example
   (monitor attached, audits executed synchronously for determinism);
2. a TCAM glitch drops leaf-2's App-DB rules — ``POST /monitor/poll``
   processes the event burst and opens an incident with SCOUT suspects;
3. ``POST /audits`` runs a full audit whose fingerprint is asserted
   byte-identical to a direct ``ScoutSystem.check()``;
4. the agent resyncs its TCAM — the next poll resolves the incident, and a
   second operator ack over the API answers 409 Conflict;
5. ``GET /metrics`` shows the Prometheus counters the run accumulated.

Requests go through the in-process test client — the exact dispatch path the
WSGI daemon serves — so the example runs without opening a socket.

Run with:  python examples/usecase_service.py
"""

from __future__ import annotations

from repro.service import ScoutService, TestClient
from repro.workloads import three_tier_scenario


def main() -> None:
    scenario = three_tier_scenario()
    controller = scenario.controller
    clock = controller.clock

    service = ScoutService(controller, name="three-tier", sync_audits=True)
    client = TestClient(service)

    health = client.get("/healthz").json()
    print("== Service up ==")
    print(f"  switches        : {health['switches']}")
    print(f"  monitor running : {health['monitor_running']}")
    print(f"  open incidents  : {health['open_incidents']}")

    # -- Act 1: a TCAM glitch drops the App-DB rules on leaf-2 ---------- #
    victim = scenario.fabric.switch("leaf-2")
    lost = victim.tcam.remove_where(lambda rule: rule.port == 700)
    clock.tick(2)
    print(f"\n== t={clock.peek()}: TCAM glitch on leaf-2 ({len(lost)} rule(s) vanish) ==")
    poll = client.post("/monitor/poll").json()
    opened = poll["pass"]["opened"]
    assert len(opened) == 1, "the monitor must open exactly one incident"
    incident = opened[0]
    print(f"  POST /monitor/poll opened {incident['incident_id']} on "
          f"{incident['switch_uid']}")
    print(f"  suspects        : {incident['suspects']}")

    listing = client.get("/incidents?status=open").json()["incidents"]
    assert len(listing) == 1

    # -- Act 2: a full audit over the API ------------------------------- #
    job = client.post("/audits", json={}).json()["job"]
    assert job["status"] == "done", job
    direct = service.system.check().fingerprint()
    assert job["result"]["fingerprint"] == direct, (
        "an audit served over the API must be byte-identical to a direct check"
    )
    suspects = [entry["risk"] for entry in job["result"]["hypothesis"]["entries"]]
    print(f"\n== Audit {job['job_id']} ==")
    print(f"  fingerprint     : {direct[:16]}… (== direct ScoutSystem.check())")
    print(f"  hypothesis      : {suspects}")

    polled = client.get(f"/audits/{job['job_id']}").json()["job"]
    assert polled["status"] == "done"

    # -- Act 3: repair, resolution, and the 409 double-ack --------------- #
    victim.sync_tcam()
    clock.tick(2)
    poll = client.post("/monitor/poll").json()
    resolved = poll["pass"]["resolved"]
    print(f"\n== t={clock.peek()}: TCAM resynced ==")
    print(f"  POST /monitor/poll resolved {len(resolved)} incident(s)")
    assert [entry["incident_id"] for entry in resolved] == [incident["incident_id"]]

    again = client.post(f"/incidents/{incident['incident_id']}/resolve")
    print(f"  re-ack over the API -> {again.status} "
          f"({again.json()['error']['detail']})")
    assert again.status == 409

    # -- Outcome --------------------------------------------------------- #
    print("\n== GET /metrics ==")
    print(client.get("/metrics").text)
    service.close()


if __name__ == "__main__":
    main()
