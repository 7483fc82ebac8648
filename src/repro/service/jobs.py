"""The job queue: audits, campaigns and churn soaks as service-side jobs.

A full SCOUT audit (equivalence sweep → localization → correlation) takes
seconds to minutes at datacenter scale, far too long to hold an HTTP request
open.  ``POST /audits`` therefore enqueues an :class:`AuditJob` and returns
immediately; a single daemon worker thread drains the queue FIFO and runs
each job; ``GET /audits/{id}`` polls status until the serialized
:class:`~repro.core.system.ScoutReport` is attached.  The queue knows nothing about audits beyond its name: the
service builds one per row of its job table
(:data:`repro.service.app.JOB_KINDS`), each with that kind's runner, id
prefix and metric prefix, so kinds never wait on one another.

Two execution modes share the code path:

* **async** (the daemon default) — a lazily started worker thread executes
  jobs in submission order;
* **sync** — :meth:`AuditQueue.submit` runs the job inline before
  returning, which is what makes unit tests, the ``--once`` self-check and
  CI smoke runs deterministic without sleeps or polling loops.

One worker thread (not a pool) is deliberate: FIFO execution keeps results
in submission order.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .metrics import MetricsRegistry

__all__ = ["AuditJob", "AuditQueue", "JobStatus"]


class JobStatus(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class AuditJob:
    """One enqueued SCOUT run and (eventually) its serialized report."""

    job_id: str
    params: Dict = field(default_factory=dict)
    status: JobStatus = JobStatus.QUEUED
    result: Optional[Dict] = None
    error: Optional[str] = None
    duration_seconds: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)

    def to_dict(self, with_result: bool = True) -> Dict:
        payload = {
            "job_id": self.job_id,
            "status": self.status.value,
            "params": dict(self.params),
            "error": self.error,
            "duration_seconds": self.duration_seconds,
        }
        if with_result:
            payload["result"] = self.result
        return payload


#: Executes one job's params and returns the JSON-ready result payload.
Runner = Callable[[Dict], Dict]


class AuditQueue:
    """FIFO job execution: inline for tests, a worker thread for the daemon.

    The queue is job-kind agnostic: the audit, campaign and churn endpoints
    each own one instance (three in all), distinguished by the job-id
    ``prefix`` (``AUD-``/``CMP-``/``CHN-``) and the ``metric_prefix`` under
    which executions are counted (``repro_audit_*`` / ``repro_campaign_*`` /
    ``repro_churn_*``).
    """

    def __init__(
        self,
        runner: Runner,
        sync: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        prefix: str = "AUD",
        metric_prefix: str = "audit",
    ) -> None:
        self._runner = runner
        self.sync = sync
        self._metrics = metrics
        self._prefix = prefix
        self._metric_prefix = metric_prefix
        self._jobs: Dict[str, AuditJob] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, params: Dict, sync: Optional[bool] = None) -> AuditJob:
        """Enqueue one audit; ``sync=True`` forces inline execution.

        The per-call ``sync`` override is what ``POST /audits`` with
        ``{"sync": true}`` uses, so a probe can get a finished job out of an
        otherwise-async daemon in one round trip.
        """
        if self._closed:
            raise RuntimeError("audit queue is shut down")
        job_id = f"{self._prefix}-{next(self._ids):04d}"
        job = AuditJob(job_id=job_id, params=dict(params))
        with self._lock:
            self._jobs[job.job_id] = job
        run_inline = self.sync if sync is None else sync
        if run_inline:
            self._execute(job)
        else:
            self._ensure_worker()
            self._queue.put(job.job_id)
        return job

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _ensure_worker(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._drain,
                name=f"repro-{self._metric_prefix}-worker",
                daemon=True,
            )
            self._worker.start()

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            try:
                if job_id is None:
                    return
                job = self.get(job_id)
                if job is not None:
                    self._execute(job)
            finally:
                self._queue.task_done()

    def _execute(self, job: AuditJob) -> None:
        job.status = JobStatus.RUNNING
        start = time.perf_counter()
        try:
            job.result = self._runner(job.params)
        except Exception as exc:  # noqa: BLE001 - failures are reported, not raised
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = JobStatus.FAILED
        else:
            job.status = JobStatus.DONE
        job.duration_seconds = time.perf_counter() - start
        if self._metrics is not None:
            kind = self._metric_prefix
            self._metrics.inc(
                f"repro_{kind}_jobs_total",
                labels={"status": job.status.value},
                help=f"{kind.capitalize()} jobs executed, by terminal status.",
            )
            self._metrics.observe(
                f"repro_{kind}_latency_seconds",
                job.duration_seconds,
                help=f"Wall-clock seconds per executed {kind} job.",
            )

    # ------------------------------------------------------------------ #
    # Queries and lifecycle
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Optional[AuditJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[AuditJob]:
        """Every known job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def pending(self) -> int:
        """Jobs not yet in a terminal state (queued + running)."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if not job.finished)

    def join(self) -> None:
        """Block until every enqueued job has executed (tests, shutdown)."""
        self._queue.join()

    def shutdown(self) -> None:
        """Stop accepting jobs, drain the queue, stop the worker (idempotent).

        The worker reference is only dropped once the thread has actually
        exited: a long audit can outlive the bounded join, and forgetting a
        live worker would let a later (buggy) submit spawn a second one
        racing the first on the queue.  ``_closed`` makes that impossible
        anyway — post-shutdown submits raise.
        """
        self._closed = True
        if self._worker is not None and self._worker.is_alive():
            self._queue.put(None)
            self._worker.join(timeout=10.0)
        if self._worker is not None and not self._worker.is_alive():
            self._worker = None
