"""Console entry points: the service daemon and the one-shot audit CLI.

``repro-service`` (also ``python -m repro.service``) generates and deploys a
named workload profile, attaches the monitor and either serves the JSON API
over the stdlib WSGI server or — with ``--once`` — drives every core
endpoint through the in-process client as a self-check and exits non-zero
on any failure (the mode CI boots).

``repro-audit`` runs one SCOUT audit against a freshly deployed profile and
prints the serialized report as JSON; the exit code says whether the
deployment was consistent, so it composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence

from ..core.system import ScoutSystem
from ..exceptions import VerificationError
from ..online.monitor import NetworkMonitor
from ..workloads.profiles import profile_names
from ..workloads.scenarios import deploy_profile
from .app import ScoutService, service_for_profile
from .testing import TestClient
from .wsgi import serve

__all__ = ["main_audit", "main_service"]


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="small",
        help=f"workload profile to deploy ({', '.join(profile_names())})",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the profile's RNG seed"
    )


def main_service(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Serve SCOUT audits, incidents and monitoring as a JSON API.",
    )
    _add_profile_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8421, help="bind port")
    parser.add_argument(
        "--sync-audits",
        action="store_true",
        help="execute POST /audits inline instead of on the worker thread",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="self-check every core endpoint in-process and exit (no sockets)",
    )
    parser.add_argument(
        "--restore",
        metavar="PATH",
        default=None,
        help="resume the monitor from a POST /monitor/snapshot JSON file "
        "instead of starting it afresh",
    )
    args = parser.parse_args(argv)

    restore_snapshot = None
    if args.restore is not None:
        try:
            restore_snapshot = json.loads(Path(args.restore).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load snapshot {args.restore!r}: {exc}")
    try:
        service = service_for_profile(
            args.profile,
            seed=args.seed,
            sync_audits=args.sync_audits or args.once,
            restore_snapshot=restore_snapshot,
        )
    except (ValueError, VerificationError) as exc:
        # A malformed snapshot, or a fabric the restore sweep cannot check.
        parser.error(str(exc))
    mode = "restored" if restore_snapshot is not None else "running"
    print(
        f"[repro-service] profile {service.name!r} deployed: "
        f"{len(service.controller.fabric.switches)} switch(es), monitor {mode}"
    )
    if args.once:
        return _self_check(service)
    print(f"[repro-service] listening on http://{args.host}:{args.port}")
    serve(service, args.host, args.port)  # pragma: no cover - blocking loop
    return 0  # pragma: no cover


def _self_check(service: ScoutService) -> int:
    """Drive every core endpoint through the in-process client, no sockets.

    Each step prints ``PASS``/``FAIL``; the exit code is non-zero when any
    response — or the audit fingerprint identity against a direct
    ``ScoutSystem.check()`` — is off.
    """
    client = TestClient(service)
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"[repro-service] {'PASS' if ok else 'FAIL'} {label}{suffix}")

    health = client.get("/healthz")
    check("GET /healthz", health.status == 200, f"status={health.status}")

    audit = client.post("/audits", json={"sync": True})
    check("POST /audits (sync)", audit.status == 200)
    job = audit.json().get("job", {})
    check("audit job finished", job.get("status") == "done", job.get("error") or "")

    polled = client.get(f"/audits/{job.get('job_id')}")
    check(
        "GET /audits/{id}",
        polled.status == 200 and polled.json()["job"]["status"] == "done",
    )
    result = job.get("result") or {}
    direct = service.system.check().fingerprint()
    check(
        "audit fingerprint == direct ScoutSystem.check()",
        result.get("fingerprint") == direct,
        f"api={str(result.get('fingerprint'))[:12]} direct={direct[:12]}",
    )
    entries = (result.get("hypothesis") or {}).get("entries")
    check("audit returned hypothesis JSON", isinstance(entries, list))

    incidents = client.get("/incidents")
    count = len(incidents.json().get("incidents", []))
    check("GET /incidents", incidents.status == 200, f"{count} incident(s)")

    poll = client.post("/monitor/poll", json={"force": True})
    check("POST /monitor/poll", poll.status == 200)
    status = client.get("/monitor/status")
    check("GET /monitor/status", status.status == 200)

    metrics = client.get("/metrics")
    check(
        "GET /metrics",
        metrics.status == 200 and "repro_http_requests_total" in metrics.text,
    )
    traces = client.get("/traces")
    trace_body = traces.json() if traces.status == 200 else {}
    check(
        "GET /traces",
        traces.status == 200 and trace_body.get("span_count", 0) > 0,
        f"{trace_body.get('span_count', 0)} span(s)",
    )
    missing = client.get("/audits/AUD-9999")
    check(
        "structured 404 body",
        missing.status == 404 and missing.json()["error"]["status"] == 404,
    )

    health_report = client.get("/health")
    check(
        "GET /health",
        health_report.status == 200 and "status" in health_report.json(),
        str(health_report.json().get("status", "")),
    )
    slo = client.get("/slo")
    check("GET /slo", slo.status == 200 and "slos" in slo.json())

    # Force a fault and walk the incident's black box end to end: the poll's
    # correlation id must tie the HTTP response header, the incident record
    # and the dumped flight-record bundle together.
    victim = sorted(service.controller.fabric.leaf_uids())[0]
    service.controller.fabric.switch(victim).tcam.remove_where(lambda rule: True)
    service.controller.clock.tick(2)
    forced = client.post("/monitor/poll", json={"force": True})
    opened = (forced.json().get("pass") or {}).get("opened") or []
    check(
        "forced fault opens one incident",
        forced.status == 200 and len(opened) == 1,
        f"{len(opened)} opened",
    )
    if len(opened) == 1:
        incident = opened[0]
        record = client.get(f"/incidents/{incident['incident_id']}/flightrecord")
        bundle = record.json().get("flightrecord") or {}
        check(
            "GET /incidents/{id}/flightrecord",
            record.status == 200 and bundle.get("trigger") == "incident-open",
            bundle.get("record_id", ""),
        )
        corr = forced.headers.get("X-Repro-Corr-Id")
        check(
            "corr id ties poll, incident and flight record",
            bool(corr)
            and incident.get("corr_id") == corr
            and bundle.get("corr_id") == corr,
            str(corr),
        )
        correlated_names = {
            entry.get("name")
            for entry in bundle.get("spans", [])
            if entry.get("attrs", {}).get("corr_id") == corr
        }
        check(
            "poll corr id spans monitor.poll and its check.switch",
            {"monitor.poll", "check.switch"} <= correlated_names,
            f"{len(correlated_names)} correlated span name(s)",
        )
        bus_events = [
            entry
            for entry in bundle.get("events", [])
            if str(entry.get("kind", "")).startswith("bus.")
        ]
        check("flight record captured bus traffic", bool(bus_events))

    # Snapshot → restart → restore: a fresh monitor adopting the snapshot
    # must come up with the incident intact and the same live verdict, after
    # exactly one sweep of its own.
    snap = client.post("/monitor/snapshot", json={})
    check("POST /monitor/snapshot", snap.status == 200)
    snapshot = snap.json().get("snapshot") or {}
    full_before = service.monitor.stats().get("full_checks")
    verdict_before = service.monitor.report().semantic_fingerprint()
    open_before = {item.incident_id for item in service.store.active()}
    stopped = client.post("/monitor/stop", json={})
    check("POST /monitor/stop", stopped.status == 200)
    restored = NetworkMonitor.from_snapshot(service.controller, snapshot)
    check(
        "restored monitor attaches after one sweep",
        restored.running and restored.stats().get("full_checks") == full_before + 1,
        f"full_checks={restored.stats().get('full_checks')}",
    )
    check(
        "incidents survive the restart",
        bool(open_before)
        and {item.incident_id for item in restored.store.active()} == open_before,
        f"{len(restored.store.active())} open",
    )
    check(
        "restored verdict matches the pre-restart monitor",
        restored.report().semantic_fingerprint() == verdict_before,
    )
    restored.close()
    # Resume the original service monitor the same way.
    service.monitor.restore(snapshot)
    status = client.get("/monitor/status")
    status_body = status.json() if status.status == 200 else {}
    check(
        "monitor resumed after restore",
        status.status == 200
        and status_body.get("running") is True
        and status_body.get("stats", {}).get("restores", 0) >= 1,
    )

    service.close()
    verdict = "ok" if failures == 0 else f"{failures} failure(s)"
    print(f"[repro-service] self-check {verdict}")
    return 0 if failures == 0 else 1


def main_audit(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Run one SCOUT audit against a deployed profile, print JSON.",
    )
    _add_profile_arguments(parser)
    parser.add_argument(
        "--scope", choices=("controller", "switch"), default="controller"
    )
    parser.add_argument("--indent", type=int, default=2, help="JSON indentation")
    args = parser.parse_args(argv)

    try:
        controller = deploy_profile(args.profile, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    report = ScoutSystem(controller).localize(scope=args.scope)
    payload = report.to_dict()
    payload["fingerprint"] = report.equivalence.fingerprint()
    print(json.dumps(payload, indent=args.indent, sort_keys=True))
    # Shell-friendly: 0 = consistent deployment, 1 = violations found.
    return 0 if report.consistent else 1
