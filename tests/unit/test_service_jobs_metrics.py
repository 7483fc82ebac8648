"""Unit tests for the audit job queue and the metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.service.jobs import AuditQueue, JobStatus
from repro.service.metrics import SUMMARY_WINDOW, MetricsRegistry


class TestAuditQueueSync:
    def test_sync_submit_runs_inline(self):
        queue = AuditQueue(lambda params: {"echo": params}, sync=True)
        job = queue.submit({"scope": "controller"})
        assert job.status is JobStatus.DONE
        assert job.finished
        assert job.result == {"echo": {"scope": "controller"}}
        assert job.duration_seconds is not None and job.duration_seconds >= 0

    def test_job_ids_are_sequential(self):
        queue = AuditQueue(lambda params: {}, sync=True)
        assert [queue.submit({}).job_id for _ in range(3)] == [
            "AUD-0001",
            "AUD-0002",
            "AUD-0003",
        ]
        assert [job.job_id for job in queue.jobs()] == [
            "AUD-0001",
            "AUD-0002",
            "AUD-0003",
        ]

    def test_runner_failure_is_reported_not_raised(self):
        def runner(params):
            raise ValueError("no such scope")

        queue = AuditQueue(runner, sync=True)
        job = queue.submit({})
        assert job.status is JobStatus.FAILED
        assert "ValueError" in job.error and "no such scope" in job.error
        assert job.result is None

    def test_metrics_recorded_per_terminal_status(self):
        metrics = MetricsRegistry()
        flaky = {"calls": 0}

        def runner(params):
            flaky["calls"] += 1
            if flaky["calls"] == 1:
                raise RuntimeError("first call fails")
            return {}

        queue = AuditQueue(runner, sync=True, metrics=metrics)
        queue.submit({})
        queue.submit({})
        text = metrics.render()
        assert 'repro_audit_jobs_total{status="failed"} 1\n' in text
        assert 'repro_audit_jobs_total{status="done"} 1\n' in text
        assert "repro_audit_latency_seconds_count 2\n" in text

    def test_to_dict_shapes(self):
        queue = AuditQueue(lambda params: {"ok": True}, sync=True)
        job = queue.submit({"parallel": False})
        full = job.to_dict()
        assert full["result"] == {"ok": True}
        slim = job.to_dict(with_result=False)
        assert "result" not in slim
        assert slim["status"] == "done"


class TestAuditQueueAsync:
    def test_worker_thread_drains_fifo(self):
        order = []
        gate = threading.Event()

        def runner(params):
            gate.wait(timeout=5)
            order.append(params["n"])
            return {"n": params["n"]}

        queue = AuditQueue(runner, sync=False)
        jobs = [queue.submit({"n": n}) for n in range(3)]
        assert all(not job.finished for job in jobs[1:])
        gate.set()
        queue.join()
        assert order == [0, 1, 2]
        assert all(job.status is JobStatus.DONE for job in jobs)
        queue.shutdown()

    def test_shutdown_is_idempotent(self):
        queue = AuditQueue(lambda params: {}, sync=False)
        queue.submit({})
        queue.join()
        queue.shutdown()
        queue.shutdown()

    def test_submit_after_shutdown_raises(self):
        queue = AuditQueue(lambda params: {}, sync=True)
        queue.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            queue.submit({})

    def test_get_unknown_job_returns_none(self):
        queue = AuditQueue(lambda params: {}, sync=True)
        assert queue.get("AUD-0404") is None


class TestMetricsRegistry:
    def test_counter_labels_render_sorted(self):
        metrics = MetricsRegistry()
        metrics.inc("m_total", labels={"b": "2", "a": "1"}, help="A metric.")
        metrics.inc("m_total", labels={"a": "1", "b": "2"})
        text = metrics.render()
        assert "# HELP m_total A metric." in text
        assert "# TYPE m_total counter" in text
        assert 'm_total{a="1",b="2"} 2' in text

    def test_unlabelled_counter(self):
        metrics = MetricsRegistry()
        metrics.inc("plain_total")
        assert "plain_total 1" in metrics.render()

    def test_inc_adds_its_value_per_label_set(self):
        metrics = MetricsRegistry()
        metrics.inc("bytes_total", {"dir": "in"}, value=2.5)
        metrics.inc("bytes_total", {"dir": "in"}, value=1.5)
        metrics.inc("bytes_total", {"dir": "out"})
        text = metrics.render()
        assert 'bytes_total{dir="in"} 4\n' in text
        assert 'bytes_total{dir="out"} 1\n' in text

    def test_summary_count_and_sum(self):
        metrics = MetricsRegistry()
        metrics.observe("lat_seconds", 0.25)
        metrics.observe("lat_seconds", 0.75)
        text = metrics.render()
        assert "# TYPE lat_seconds summary" in text
        assert "lat_seconds_count 2" in text
        assert "lat_seconds_sum 1" in text

    def test_gauge_reflects_live_state(self):
        metrics = MetricsRegistry()
        box = {"value": 1.0}
        metrics.gauge("box_size", lambda: box["value"])
        assert "box_size 1" in metrics.render()
        box["value"] = 2.5
        assert "box_size 2.5" in metrics.render()

    def test_render_ends_with_newline(self):
        metrics = MetricsRegistry()
        metrics.inc("x_total")
        assert metrics.render().endswith("\n")

    def test_concurrent_increments_are_not_lost(self):
        metrics = MetricsRegistry()
        workers, rounds = 4, 500

        def hammer():
            for _ in range(rounds):
                metrics.inc("hot_total", labels={"shared": "series"})
                metrics.observe("hot_seconds", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = workers * rounds
        text = metrics.render()
        assert f'hot_total{{shared="series"}} {expected}\n' in text
        assert f"hot_seconds_count {expected}\n" in text


class TestMetricsExposition:
    """Prometheus text-format edge cases: escaping, quantiles, odd floats."""

    def test_empty_registry_renders_empty_string(self):
        assert MetricsRegistry().render() == ""

    def test_label_values_are_escaped(self):
        metrics = MetricsRegistry()
        metrics.inc("esc_total", labels={"path": 'a\\b"c\nd'})
        assert 'esc_total{path="a\\\\b\\"c\\nd"} 1' in metrics.render()

    def test_summary_renders_quantile_series(self):
        metrics = MetricsRegistry()
        metrics.observe("lat_seconds", 0.25)
        metrics.observe("lat_seconds", 0.75)
        text = metrics.render()
        assert 'lat_seconds{quantile="0.5"} 0.5' in text
        assert 'lat_seconds{quantile="0.9"} 0.7' in text
        assert 'lat_seconds{quantile="0.99"}' in text

    def test_single_observation_pins_every_quantile(self):
        metrics = MetricsRegistry()
        metrics.observe("one_seconds", 3.0)
        text = metrics.render()
        for q in ("0.5", "0.9", "0.99"):
            assert f'one_seconds{{quantile="{q}"}} 3' in text

    def test_labelled_summary_series_are_independent(self):
        metrics = MetricsRegistry()
        metrics.observe("stage_seconds", 1.0, labels={"stage": "build"})
        metrics.observe("stage_seconds", 2.0, labels={"stage": "build"})
        metrics.observe("stage_seconds", 5.0, labels={"stage": "check"})
        text = metrics.render()
        assert 'stage_seconds_count{stage="build"} 2' in text
        assert 'stage_seconds_sum{stage="build"} 3' in text
        assert 'stage_seconds_count{stage="check"} 1' in text
        # Quantile label merges (sorted) into the series' own labels.
        assert 'stage_seconds{quantile="0.5",stage="check"} 5' in text

    def test_window_bounds_quantiles_but_not_count_or_sum(self):
        metrics = MetricsRegistry()
        # One more observation than the window holds: 0 falls out of it.
        for value in range(SUMMARY_WINDOW + 1):
            metrics.observe("win_seconds", float(value))
        text = metrics.render()
        assert f"win_seconds_count {SUMMARY_WINDOW + 1}" in text
        assert f"win_seconds_sum {SUMMARY_WINDOW * (SUMMARY_WINDOW + 1) // 2}" in text
        # Only the last SUMMARY_WINDOW observations (1..SUMMARY_WINDOW) back
        # the quantile snapshot: their median, not that of 0..SUMMARY_WINDOW.
        median = (SUMMARY_WINDOW + 1) / 2
        assert f'win_seconds{{quantile="0.5"}} {median!r}' in text

    def test_non_finite_values_render_per_spec(self):
        metrics = MetricsRegistry()
        metrics.observe("inf_seconds", float("inf"))
        metrics.gauge("minus_inf", lambda: float("-inf"))
        metrics.gauge("not_a_number", lambda: float("nan"))
        text = metrics.render()
        assert "inf_seconds_sum +Inf" in text
        assert "minus_inf -Inf" in text
        assert "not_a_number NaN" in text

    def test_float_formatting_collapses_integers(self):
        metrics = MetricsRegistry()
        metrics.inc("whole_total", value=2.0)
        metrics.observe("frac_seconds", 0.1)
        text = metrics.render()
        assert "whole_total 2" in text  # not 2.0
        assert "frac_seconds_sum 0.1" in text  # repr keeps full precision

    def test_type_headers_emitted_once_per_metric(self):
        metrics = MetricsRegistry()
        metrics.observe("multi_seconds", 1.0, labels={"a": "1"})
        metrics.observe("multi_seconds", 2.0, labels={"a": "2"})
        text = metrics.render()
        assert text.count("# TYPE multi_seconds summary") == 1


@pytest.mark.parametrize(
    "status, finished",
    [
        (JobStatus.QUEUED, False),
        (JobStatus.RUNNING, False),
        (JobStatus.DONE, True),
        (JobStatus.FAILED, True),
    ],
)
def test_job_status_finished(status, finished):
    from repro.service.jobs import AuditJob

    assert AuditJob(job_id="AUD-0001", status=status).finished is finished
