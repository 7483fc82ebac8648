"""The operator service: HTTP routes wired over a live SCOUT deployment.

:class:`ScoutService` is the front door the ROADMAP's "serve heavy traffic"
step calls for.  It owns one :class:`~repro.core.system.ScoutSystem` (batch
audits), one
:class:`~repro.online.monitor.NetworkMonitor` (continuous detection with the
incident lifecycle) and one :class:`~repro.service.jobs.AuditQueue` per row
of the job table (:data:`JOB_KINDS`), and exposes them as the JSON API that
``docs/http-api.md`` documents route by route (a tier-1 test holds that file
and the live ``service.router.routes`` to the same set).

Every request runs under a **correlation id** (honoring an inbound
``X-Repro-Corr-Id`` header, minting a ``req-...`` id otherwise) that is
stamped on every span the request produces, on any incident the request's
monitor poll opens, and on the ``X-Repro-Corr-Id`` response header.  A
:class:`~repro.obs.recorder.FlightRecorder` rides along: bounded rings of
recent spans/events/metric deltas, dumped as a black-box bundle whenever an
incident opens, a churn checkpoint diverges, or a handler 500s.

The service is transport-independent (see :mod:`.http`): the same instance
serves unit tests through :class:`~repro.service.testing.TestClient` and
production traffic through the WSGI adapter.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Optional

from ..campaign.runner import run_campaign
from ..campaign.spec import CampaignSpec
from ..churn.driver import ChurnDriver
from ..controller.controller import Controller
from ..core.system import ScoutSystem
from ..obs import (
    ComponentHealth,
    FlightRecorder,
    HealthRegistry,
    HealthStatus,
    SloTracker,
    Span,
    TraceCollector,
    activated,
    attribution,
    correlated,
    new_corr_id,
    recording,
    span,
)
from ..online.events import Event
from ..online.incidents import Incident, IncidentStatus
from ..online.monitor import NetworkMonitor
from ..verify.checker import ENGINES
from ..workloads.churn_profiles import churn_profile_for
from ..workloads.profiles import resolve_profile
from ..workloads.scenarios import deploy_profile
from .http import BadRequest, Conflict, NotFound, Request, Response, Router
from .jobs import AuditJob, AuditQueue, JobStatus
from .metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry

__all__ = ["JOB_KINDS", "JobKind", "ScoutService", "service_for_profile"]

#: Hard ceiling on grid size for service-side campaigns.  A campaign runs
#: whole workload generations per cell; anything bigger belongs on the
#: ``repro-campaign`` CLI, not behind an HTTP request.
MAX_CAMPAIGN_CELLS = 64

#: Hard ceiling on churn-stream length for service-side soaks.  Longer
#: streams belong in the dedicated soak suite, not behind an HTTP request.
MAX_CHURN_EVENTS = 500


def _reject_unknown(body: Dict, allowed: FrozenSet[str], what: str) -> None:
    unknown = set(body) - allowed
    if unknown:
        raise BadRequest(
            f"unknown {what} parameter(s): {', '.join(sorted(map(str, unknown)))}"
        )


def _int_param(
    body: Dict, key: str, minimum: Optional[int] = None, default: Optional[int] = None
) -> Optional[int]:
    """``body[key]`` as a (non-bool) integer ``>= minimum``; absent → ``default``."""
    value = body.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadRequest(f"{key} must be >= {minimum}, got {value!r}")
    return value


def _bool_param(body: Dict, key: str, default: Optional[bool] = None) -> Optional[bool]:
    """``body[key]`` as a JSON boolean, nothing coerced; absent → ``default``."""
    value = body.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise BadRequest(f"{key} must be a boolean, got {value!r}")
    return value


def _parse_audit(body: Dict) -> Dict:
    scope = body.get("scope", "controller")
    if scope not in ("controller", "switch"):
        raise BadRequest(f"scope must be 'controller' or 'switch', got {scope!r}")
    engine = body.get("engine")
    if engine is not None and engine not in ENGINES:
        raise BadRequest(f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
    return {
        "scope": scope,
        "correlate": _bool_param(body, "correlate", default=True),
        "engine": engine,
    }


def _run_audit(service: ScoutService, params: Dict) -> Dict:
    """Full SCOUT pipeline over the served deployment, serialized for the wire."""
    report = service.system.localize(**params)
    payload = report.to_dict()
    # Duplicated at the top level so pollers don't have to dig for it.
    payload["fingerprint"] = report.equivalence.fingerprint()
    return payload


def _parse_campaign(body: Dict) -> Dict:
    try:
        spec = CampaignSpec.from_dict(body)
    except (TypeError, ValueError) as exc:
        # TypeError covers wrong-typed field values (e.g. a null count),
        # which the int()/float() coercions raise as TypeError.
        raise BadRequest(f"bad campaign spec: {exc}") from None
    cells = len(spec.cells())
    if cells > MAX_CAMPAIGN_CELLS:
        raise BadRequest(
            f"campaign grid has {cells} cells, the service caps at "
            f"{MAX_CAMPAIGN_CELLS}; run larger sweeps through repro-campaign"
        )
    # A churn cell runs `count` events — cap it like POST /churn does, or
    # a one-cell grid could smuggle an unbounded soak past the cell cap.
    for fault in spec.faults:
        if fault.kind == "churn" and fault.count > MAX_CHURN_EVENTS:
            raise BadRequest(
                f"churn fault runs {fault.count} events, the service caps "
                f"at {MAX_CHURN_EVENTS}; run longer soaks through the "
                f"soak suite"
            )
    return {"spec": spec.to_dict()}


def _run_campaign(service: ScoutService, params: Dict) -> Dict:
    """Run the recorded spec on fresh workloads, serialize the report."""
    return run_campaign(CampaignSpec.from_dict(params["spec"])).to_dict()


def _parse_churn(body: Dict) -> Dict:
    if "profile" not in body:
        raise BadRequest("churn request needs a 'profile'")
    events = _int_param(body, "events", minimum=1, default=50)
    if events > MAX_CHURN_EVENTS:
        raise BadRequest(
            f"churn stream has {events} events, the service caps at "
            f"{MAX_CHURN_EVENTS}; run longer soaks through the soak suite"
        )
    params: Dict = {"profile": str(body["profile"]), "events": events}
    for key, minimum in (("seed", None), ("checkpoint_interval", 1)):
        value = _int_param(body, key, minimum=minimum)
        if value is not None:
            params[key] = value
    try:
        # Validate the profile name up front so a typo is a 400, not a
        # failed job (churn_profile_for raises the listing ValueError).
        churn_profile_for(params["profile"])
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    return params


def _run_churn(service: ScoutService, params: Dict) -> Dict:
    """Hermetic seeded churn stream + differential oracle.

    The driver runs non-strict so a divergence is *reported* (the
    ``divergence_count`` field and per-checkpoint records) instead of
    500-ing the job — an operator probing a build wants the evidence,
    not a stack trace.
    """
    driver = ChurnDriver.for_workload(
        params["profile"],
        events=params["events"],
        seed=params.get("seed"),
        checkpoint_interval=params.get("checkpoint_interval"),
        strict=False,
    )
    return driver.run().to_dict()


@dataclass(frozen=True)
class JobKind:
    """One row of the job table: all that tells one job resource from another.

    The generic handlers, the queue wiring, the health probe and ``close()``
    read these rows; a new kind of job is a new row plus its ``parse``/``run``
    pair (and its three headings in ``docs/http-api.md``).
    """

    #: Keys ``service.queues``, error details and the ``repro_<name>_*`` metrics.
    name: str
    route: str
    #: Job-id prefix (``AUD-0001``).
    prefix: str
    #: Whether ``POST route`` runs inline when the body does not say.
    sync: bool
    #: Body fields ``POST route`` accepts besides ``sync`` (anything else: 400).
    fields: FrozenSet[str]
    #: Validates a body into job params; ``run`` executes them, JSON-ready out.
    parse: Callable[[Dict], Dict]
    run: Callable[[ScoutService, Dict], Dict]


JOB_KINDS = (
    JobKind(
        name="audit",
        route="/audits",
        prefix="AUD",
        sync=False,
        fields=frozenset({"scope", "correlate", "engine"}),
        parse=_parse_audit,
        run=_run_audit,
    ),
    # Campaigns execute inline by default: the route is a synchronous sweep
    # gate (a probe POSTs a small grid and reads the fingerprint chain out
    # of the response), with ``{"sync": false}`` available to push a larger
    # grid onto the worker thread.
    JobKind(
        name="campaign",
        route="/campaigns",
        prefix="CMP",
        sync=True,
        fields=frozenset({"name", "profiles", "seeds", "faults", "engines", "scope"}),
        parse=_parse_campaign,
        run=_run_campaign,
    ),
    # Churn soaks run hermetically against a *fresh* workload (never the
    # served fabric: a reboot event wiping a production leaf's TCAM over
    # HTTP would be an operator's worst day), synchronously by default like
    # campaigns — a probe POSTs a short stream and reads the checkpoint
    # verdicts out of the response.
    JobKind(
        name="churn",
        route="/churn",
        prefix="CHN",
        sync=True,
        fields=frozenset({"profile", "seed", "events", "checkpoint_interval"}),
        parse=_parse_churn,
        run=_run_churn,
    ),
)


def _job_response(job: AuditJob) -> Response:
    """The job-submission response: the HTTP status tracks the job's fate.

    Queued jobs are a 202, finished jobs a 200 — and a *failed* synchronous
    job is a 500, so probes keying on the status code (``curl -f`` in a CI
    gate) cannot mistake a failed run for a success.
    """
    if job.status is JobStatus.FAILED:
        status = 500
    elif job.finished:
        status = 200
    else:
        status = 202
    return Response.json({"job": job.to_dict()}, status=status)


class ScoutService:
    """Routes + state for one deployed controller/fabric pair."""

    def __init__(
        self,
        controller: Controller,
        name: str = "scout",
        sync_audits: bool = False,
        restore_snapshot: Optional[Dict] = None,
    ) -> None:
        self.controller = controller
        self.name = name
        self.system = ScoutSystem(controller)
        # A restore snapshot replaces :meth:`start`: the monitor comes up
        # already attached (``running``), its one sweep applied to no
        # incident — what the sweep finds changed since the snapshot is the
        # first poll's to open or resolve.  Whatever partition count wrote
        # the snapshot, it restores into one (the rebalance path: per-switch
        # verdicts are partition-independent).
        if restore_snapshot is not None:
            self.monitor = NetworkMonitor.from_snapshot(
                controller, restore_snapshot, partitions=1
            )
        else:
            self.monitor = NetworkMonitor(controller)
        self.store = self.monitor.store
        self.metrics = MetricsRegistry()
        # One long-lived collector for the whole service: every request and
        # every job runs under it, and each finished span feeds the
        # ``repro_stage_seconds`` summary so /metrics carries per-stage
        # latency quantiles even after the span buffer rolls over.
        self.tracer = TraceCollector(max_spans=20_000)
        self.tracer.add_sink(self._record_stage)
        # The flight recorder rides every request and job: spans via a
        # collector sink, metric deltas via the registry observer, bus
        # traffic via a subscriber — all bounded rings, dumped on failure.
        self.recorder = FlightRecorder()
        self.tracer.add_sink(self.recorder.record_span)
        self.metrics.set_observer(self._observe_metric)
        self.monitor.bus.subscribe(self._record_bus_event)
        self.health = HealthRegistry()
        self.slo = SloTracker()
        self._register_health()
        # One queue and one worker thread per kind, so an async campaign does
        # not block async audits.  ``sync_audits`` (the daemon's
        # ``--sync-audits``/``--once``) overrides the audit row's default.
        self.queues = {
            kind.name: AuditQueue(
                partial(self._run_job, kind),
                sync=sync_audits if kind.name == "audit" else kind.sync,
                metrics=self.metrics,
                prefix=kind.prefix,
                metric_prefix=kind.name,
            )
            for kind in JOB_KINDS
        }
        self.router = Router()
        self._register_routes()
        self._register_gauges()
        self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Attach the monitor (bootstrap sweep) if it is not already running."""
        if not self.monitor.running:
            with activated(self.tracer), recording(self.recorder):
                with correlated(prefix="boot"):
                    self.monitor.start()
            for incident in self.store.active():
                self._dump_incident_open(incident)

    def close(self) -> None:
        """Stop the job workers and detach the monitor."""
        for queue in self.queues.values():
            queue.shutdown()
        self.monitor.close()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def handle(self, request: Request) -> Response:
        """The single entry point both the WSGI app and the test client use.

        An inbound ``X-Repro-Corr-Id`` header joins the caller's trail;
        otherwise a fresh ``req-...`` id is minted.  Everything the request
        does — dispatch, monitor polls, incident opens —
        runs under that id, and the response echoes it back.
        """
        corr_id = request.header("x-repro-corr-id") or new_corr_id("req")
        with correlated(corr_id), activated(self.tracer), recording(self.recorder):
            with span("http.request", method=request.method.upper(), path=request.path):
                response = self.router.dispatch(request)
            self.slo.record("http-availability", response.status < 500)
            if response.status >= 500:
                self.recorder.dump(
                    "http-500",
                    corr_id=corr_id,
                    method=request.method.upper(),
                    path=request.path,
                    status=response.status,
                )
        response.headers.setdefault("X-Repro-Corr-Id", corr_id)
        self.metrics.inc(
            "repro_http_requests_total",
            labels={"method": request.method.upper(), "status": str(response.status)},
            help="HTTP requests served, by method and response status.",
        )
        return response

    def _record_stage(self, finished: Span) -> None:
        """Span sink: every finished span becomes a stage-latency observation."""
        self.metrics.observe(
            "repro_stage_seconds",
            finished.duration,
            labels={"stage": finished.name},
            help="Pipeline stage latency, by span name.",
        )

    def _observe_metric(
        self, name: str, value: float, labels: Optional[Dict[str, str]]
    ) -> None:
        """Registry observer: metric deltas feed the recorder and job SLOs."""
        self.recorder.record_metric(name, value, labels)
        if name.endswith("_jobs_total") and labels and "status" in labels:
            self.slo.record("job-success", labels["status"] == "done")

    def _record_bus_event(self, event: Event) -> None:
        """Bus subscriber: every fabric/policy event lands in the black box, a
        line per policy edit, fault record or TCAM write."""
        self.recorder.record_event(
            "bus." + type(event).__name__,
            detail=event.describe(),
            timestamp=event.timestamp,
        )

    def _dump_incident_open(self, incident: Incident) -> None:
        """Snapshot the black box for a newly opened incident (idempotent)."""
        if self.recorder.record_for_incident(incident.incident_id) is None:
            self.recorder.dump(
                "incident-open",
                corr_id=incident.corr_id,
                incident_id=incident.incident_id,
                switch=incident.switch_uid,
            )

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def _register_routes(self) -> None:
        add = self.router.add
        add("GET", "/healthz", self._get_healthz)
        for kind in JOB_KINDS:
            add("POST", kind.route, partial(self._post_job, kind))
            add("GET", kind.route, partial(self._list_jobs, kind))
            add("GET", kind.route + "/{job_id}", partial(self._get_job, kind))
        add("GET", "/incidents", self._list_incidents)
        add("GET", "/incidents/{incident_id}", self._get_incident)
        add("POST", "/incidents/{incident_id}/resolve", self._resolve_incident)
        add("GET", "/incidents/{incident_id}/flightrecord", self._get_flightrecord)
        add("GET", "/health", self._get_health)
        add("GET", "/slo", self._get_slo)
        add("POST", "/monitor/poll", self._post_monitor_poll)
        add("GET", "/monitor/status", self._get_monitor_status)
        add("POST", "/monitor/start", self._post_monitor_start)
        add("POST", "/monitor/stop", self._post_monitor_stop)
        add("POST", "/monitor/snapshot", self._post_monitor_snapshot)
        add("GET", "/metrics", self._get_metrics)
        add("GET", "/traces", self._get_traces)

    def _register_gauges(self) -> None:
        gauge = self.metrics.gauge
        gauge(
            "repro_incidents_open",
            lambda: float(len(self.store.active())),
            help="Incidents currently open.",
        )
        gauge(
            "repro_incidents_resolved",
            lambda: float(len(self.store.resolved())),
            help="Incidents resolved over the store's lifetime.",
        )
        gauge(
            "repro_monitor_passes_total",
            lambda: float(self.monitor.stats()["passes"]),
            help="Monitor processing passes executed.",
        )
        gauge(
            "repro_monitor_pending_events",
            lambda: float(self.monitor.pending_events()),
            help="Events buffered and awaiting the debounce window.",
        )
        gauge(
            "repro_switches",
            lambda: float(len(self.controller.fabric.switches)),
            help="Switches in the monitored fabric.",
        )
        gauge(
            "repro_monitor_restores",
            lambda: float(self.monitor.stats().get("restores", 0)),
            help="Snapshot restores this monitor has absorbed.",
        )
        for counter in self.system.stats():
            gauge(
                "repro_audit_work",
                lambda name=counter: float(self.system.stats()[name]),
                help=(
                    "Audit work reused or redone: compiled-policy reuses, "
                    "patches (index derivations), rebuilds, pairs_compared, "
                    "pairs_recompiled and switches_reassembled; "
                    "switches settled by identity_proofs versus dispatched; "
                    "verdicts_reused, switches an audit answered unchanged; "
                    "folded_deltas versus full_deltas, key deltas folded from "
                    "the last proof versus taken over every key."
                ),
                labels={"counter": counter},
            )
        for component in self.health.names():
            gauge(
                "repro_health_status",
                lambda name=component: float(self.health.probe(name).status.code),
                help="Component health (0=ok, 1=degraded, 2=failing).",
                labels={"component": component},
            )
        for objective in self.slo.names():
            gauge(
                "repro_slo_attainment",
                lambda name=objective: self.slo.attainment(name),
                help="Rolling-window SLO attainment, by objective.",
                labels={"slo": objective},
            )
            gauge(
                "repro_slo_burn_rate",
                lambda name=objective: self.slo.burn_rate(name),
                help="Error-budget burn rate (1.0 = spending exactly the budget).",
                labels={"slo": objective},
            )
            gauge(
                "repro_slo_target",
                lambda name=objective: self.slo.target(name),
                help="Configured SLO target, by objective.",
                labels={"slo": objective},
            )

    def _register_health(self) -> None:
        """Wire the component probes and define the service's objectives."""
        self.health.register("monitor", self._probe_monitor)
        self.health.register("job-queues", self._probe_job_queues)
        self.health.register("bus", self._probe_bus)
        self.slo.define(
            "http-availability",
            0.999,
            "Requests answered below HTTP 500.",
        )
        self.slo.define("job-success", 0.99, "Jobs reaching the done state.")
        self.slo.define(
            "monitor-freshness",
            0.95,
            "Polls leaving no event backlog behind.",
        )

    def _probe_monitor(self) -> ComponentHealth:
        pending = self.monitor.pending_events()
        if not self.monitor.running:
            status, detail = HealthStatus.FAILING, "monitor is not running"
        elif pending > 50:
            status = HealthStatus.DEGRADED
            detail = f"{pending} events backlogged past the debounce window"
        else:
            status, detail = HealthStatus.OK, "attached and keeping up"
        return ComponentHealth(
            name="monitor",
            status=status,
            detail=detail,
            metrics={
                "running": self.monitor.running,
                "pending_events": pending,
                "passes": self.monitor.stats()["passes"],
            },
        )

    def _probe_job_queues(self) -> ComponentHealth:
        pending = {name: queue.pending() for name, queue in self.queues.items()}
        depth = sum(pending.values())
        if depth > 64:
            status, detail = HealthStatus.FAILING, f"{depth} jobs backed up"
        elif depth > 8:
            status, detail = HealthStatus.DEGRADED, f"{depth} jobs waiting"
        else:
            status, detail = HealthStatus.OK, "queues draining"
        return ComponentHealth(
            name="job-queues",
            status=status,
            detail=detail,
            metrics={
                "pending": depth,
                **{f"{name}_pending": count for name, count in pending.items()},
            },
        )

    def _probe_bus(self) -> ComponentHealth:
        # The backlog counts un-polled changes (a policy edit, a fault record,
        # a TCAM write), never the rules one of them moved.
        backlog = self.monitor.pending_events()
        seen = self.monitor.bus.total_events()
        status = HealthStatus.DEGRADED if backlog > 100 else HealthStatus.OK
        detail = (
            f"{backlog} event(s) awaiting a pass"
            if backlog
            else f"{seen} event(s) dispatched"
        )
        return ComponentHealth(
            name="bus",
            status=status,
            detail=detail,
            metrics={"events_seen": seen, "backlog": backlog},
        )

    # ------------------------------------------------------------------ #
    # Handlers: health
    # ------------------------------------------------------------------ #
    def _get_healthz(self, request: Request) -> Dict:
        return {
            "status": "ok",
            "service": self.name,
            "time": self.controller.clock.peek(),
            "switches": len(self.controller.fabric.switches),
            "monitor_running": self.monitor.running,
            "open_incidents": len(self.store.active()),
        }

    def _get_health(self, request: Request) -> Dict:
        """Component health: every probe runs live, worst status wins."""
        return self.health.report()

    def _get_slo(self, request: Request) -> Dict:
        """SLO attainment, burn rate and status per defined objective."""
        return {"slos": self.slo.snapshot()}

    # ------------------------------------------------------------------ #
    # Handlers: jobs (one set, registered per row of JOB_KINDS)
    # ------------------------------------------------------------------ #
    def _run_job(self, kind: JobKind, params: Dict) -> Dict:
        """Every queue's runner: ``kind.run`` under the tracer and recorder.

        Jobs may run on the queue's worker thread, where ``handle``'s
        collector activation does not reach — re-activate it here so job
        spans land in the same trace as request spans.
        """
        with activated(self.tracer), recording(self.recorder), correlated(prefix="job"):
            return kind.run(self, params)

    def _post_job(self, kind: JobKind, request: Request) -> Response:
        body = dict(request.json_body())
        # Absent → the kind's default; an explicit true/false overrides either way.
        sync = _bool_param(body, "sync")
        body.pop("sync", None)
        _reject_unknown(body, kind.fields, kind.name)
        job = self.queues[kind.name].submit(kind.parse(body), sync=sync)
        return _job_response(job)

    def _list_jobs(self, kind: JobKind, request: Request) -> Dict:
        jobs = self.queues[kind.name].jobs()
        return {"jobs": [job.to_dict(with_result=False) for job in jobs]}

    def _get_job(self, kind: JobKind, request: Request) -> Dict:
        job = self.queues[kind.name].get(request.params["job_id"])
        if job is None:
            raise NotFound(f"unknown {kind.name} job {request.params['job_id']!r}")
        return {"job": job.to_dict()}

    # ------------------------------------------------------------------ #
    # Handlers: incidents
    # ------------------------------------------------------------------ #
    def _list_incidents(self, request: Request) -> Dict:
        status_filter = request.query.get("status")
        wanted: Optional[IncidentStatus] = None
        if status_filter is not None:
            try:
                wanted = IncidentStatus(status_filter)
            except ValueError:
                known = ", ".join(member.value for member in IncidentStatus)
                raise BadRequest(
                    f"unknown incident status {status_filter!r} (expected: {known})"
                ) from None
        switch_filter = request.query.get("switch")
        incidents = self.store.all()
        if wanted is not None:
            incidents = [
                incident for incident in incidents if incident.status is wanted
            ]
        if switch_filter is not None:
            incidents = [
                incident
                for incident in incidents
                if incident.switch_uid == switch_filter
            ]
        return {"incidents": [incident.to_dict() for incident in incidents]}

    def _get_incident(self, request: Request) -> Dict:
        incident = self.store.get(request.params["incident_id"])
        if incident is None:
            raise NotFound(f"unknown incident {request.params['incident_id']!r}")
        return {"incident": incident.to_dict()}

    def _resolve_incident(self, request: Request) -> Dict:
        incident = self.store.get(request.params["incident_id"])
        if incident is None:
            raise NotFound(f"unknown incident {request.params['incident_id']!r}")
        if not incident.is_open:
            raise Conflict(f"incident {incident.incident_id} is already resolved")
        resolved = self.store.resolve_incident(
            incident.incident_id, self.controller.clock.peek()
        )
        assert resolved is not None  # is_open above guarantees it can close
        return {"incident": resolved.to_dict()}

    def _get_flightrecord(self, request: Request) -> Dict:
        """The black-box bundle dumped when this incident opened."""
        incident_id = request.params["incident_id"]
        incident = self.store.get(incident_id)
        if incident is None:
            raise NotFound(f"unknown incident {incident_id!r}")
        bundle = self.recorder.record_for_incident(incident_id)
        if bundle is None:
            raise NotFound(
                f"no flight record retained for incident {incident_id!r} "
                "(opened before this daemon, or aged out of the dump store)"
            )
        return {"flightrecord": bundle}

    # ------------------------------------------------------------------ #
    # Handlers: monitor
    # ------------------------------------------------------------------ #
    def _post_monitor_poll(self, request: Request) -> Dict:
        if not self.monitor.running:
            raise Conflict("monitor is not running (POST /monitor/start first)")
        force = _bool_param(request.json_body(), "force", default=False)
        monitor_pass = self.monitor.poll(force=force)
        if monitor_pass is not None:
            for incident in monitor_pass.opened:
                self._dump_incident_open(incident)
        self.slo.record("monitor-freshness", self.monitor.pending_events() == 0)
        return {
            "pass": monitor_pass.to_dict() if monitor_pass is not None else None,
            "pending_events": self.monitor.pending_events(),
        }

    def _get_monitor_status(self, request: Request) -> Dict:
        return {
            "running": self.monitor.running,
            "due": self.monitor.due(),
            "stats": self.monitor.stats(),
        }

    def _post_monitor_start(self, request: Request) -> Dict:
        if self.monitor.running:
            raise Conflict("monitor is already running")
        report = self.monitor.start()
        for incident in self.store.active():
            self._dump_incident_open(incident)
        return {"running": True, "baseline": report.summary()}

    def _post_monitor_stop(self, request: Request) -> Dict:
        if not self.monitor.running:
            raise Conflict("monitor is not running")
        self.monitor.stop()
        return {"running": False}

    def _post_monitor_snapshot(self, request: Request) -> Dict:
        """Dump the monitor's full restorable state (optionally to a file).

        With ``{"path": ...}`` the snapshot is also written atomically
        (temp file + rename) to that path, so a deploy hook can capture
        state right before killing the daemon and hand the file to
        ``repro-service --restore``.
        """
        if not self.monitor.running:
            raise Conflict("monitor is not running (nothing to snapshot)")
        body = request.json_body()
        _reject_unknown(body, frozenset({"path"}), "snapshot")
        path = body.get("path")
        if path is not None and (not isinstance(path, str) or not path):
            raise BadRequest(f"path must be a non-empty string, got {path!r}")
        snapshot = self.monitor.snapshot()
        saved = None
        if path is not None:
            target = Path(path)
            tmp = Path(path + ".tmp")
            try:
                tmp.write_text(json.dumps(snapshot, sort_keys=True) + "\n")
                os.replace(tmp, target)
            except BaseException as exc:
                with contextlib.suppress(OSError, ValueError):
                    tmp.unlink()
                # An unwritable path is the caller's mistake, not a daemon
                # fault: a 500 here would burn the availability SLO.
                if isinstance(exc, (OSError, ValueError)):
                    raise BadRequest(
                        f"cannot write snapshot to {path!r}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from None
                raise
            saved = str(target)
        return {"snapshot": snapshot, "saved": saved}

    # ------------------------------------------------------------------ #
    # Handlers: metrics
    # ------------------------------------------------------------------ #
    def _get_metrics(self, request: Request) -> Response:
        return Response.plain(
            self.metrics.render(), content_type=PROMETHEUS_CONTENT_TYPE
        )

    # ------------------------------------------------------------------ #
    # Handlers: traces
    # ------------------------------------------------------------------ #
    def _get_traces(self, request: Request) -> Dict:
        """The service trace: per-stage attribution plus the last N spans.

        ``?limit=`` caps the raw span tail (default 100, 0 for none); the
        attribution table always aggregates over everything collected.
        """
        limit_raw = request.query.get("limit", "100")
        try:
            limit = int(limit_raw)
        except (TypeError, ValueError):
            raise BadRequest(f"limit must be an integer, got {limit_raw!r}") from None
        if limit < 0:
            raise BadRequest(f"limit must be >= 0, got {limit}")
        spans = self.tracer.spans()
        return {
            "enabled": self.tracer.enabled,
            "span_count": len(spans),
            "dropped": self.tracer.dropped,
            "attribution": [stat.to_dict() for stat in attribution(spans)],
            "spans": [span.to_dict() for span in spans[-limit:]] if limit else [],
        }


def service_for_profile(
    name: str, seed: Optional[int] = None, **service_options
) -> ScoutService:
    """Generate, deploy and wrap one named workload profile.

    The daemon's boot path: :func:`~repro.workloads.deploy_profile`
    (``ValueError`` for unknown names), then a service over the deployed
    controller, named after the profile.  ``service_options`` are
    :class:`ScoutService`'s keyword arguments (``sync_audits``,
    ``restore_snapshot`` — the restart path — ...).
    """
    controller = deploy_profile(name, seed=seed)
    service_options.setdefault("name", resolve_profile(name, seed=seed).name)
    return ScoutService(controller, **service_options)
