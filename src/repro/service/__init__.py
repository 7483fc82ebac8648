"""Operator service layer: the system's front door.

The batch pipeline (:class:`~repro.core.system.ScoutSystem`) and the online
monitor (:mod:`repro.online`) become a long-running daemon here:

* :mod:`~repro.service.http` — dependency-free router, typed
  request/response, structured 400/404/409 errors;
* :mod:`~repro.service.jobs` — the job queue (enqueue → poll, with a
  deterministic synchronous mode), one instance per job kind;
* :mod:`~repro.service.app` — :class:`ScoutService`: the job table
  (``JOB_KINDS``: audits, campaigns, churn soaks) behind three generic
  handlers, and the routes over one live deployment;
* :mod:`~repro.service.metrics` — Prometheus-style ``/metrics``;
* :mod:`~repro.service.wsgi` / :mod:`~repro.service.testing` — the two
  transports: a stdlib WSGI server and an in-process test client;
* :mod:`~repro.service.cli` — ``repro-service`` / ``repro-audit`` console
  entry points (``python -m repro.service`` works too).

Reports cross the JSON boundary through ``to_dict``/``from_dict`` on the
report classes themselves (fingerprints survive the wire).
"""

from .app import ScoutService, service_for_profile
from .http import (
    ApiError,
    BadRequest,
    Conflict,
    MethodNotAllowed,
    NotFound,
    Request,
    Response,
    Router,
)
from .jobs import AuditJob, AuditQueue, JobStatus
from .metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from .testing import ClientResponse, TestClient
from .wsgi import WsgiApp, make_server_for, serve

__all__ = [
    "ApiError",
    "AuditJob",
    "AuditQueue",
    "BadRequest",
    "ClientResponse",
    "Conflict",
    "JobStatus",
    "MethodNotAllowed",
    "MetricsRegistry",
    "NotFound",
    "PROMETHEUS_CONTENT_TYPE",
    "Request",
    "Response",
    "Router",
    "ScoutService",
    "TestClient",
    "WsgiApp",
    "make_server_for",
    "serve",
    "service_for_profile",
]
