"""The flight recorder: bounded rings, dump triggers, ambient installation."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.churn import ChurnDriver
from repro.exceptions import ChurnDivergenceError
from repro.obs import (
    FlightRecorder,
    TraceCollector,
    correlated,
    dump_flightrecord,
    record_event,
    recording,
)
from repro.parallel import WarmWorkerPool


class TestRings:
    def test_span_ring_is_bounded(self):
        recorder = FlightRecorder(max_spans=4)
        collector = TraceCollector()
        collector.add_sink(recorder.record_span)
        for index in range(10):
            with collector.span(f"work.{index}"):
                pass
        bundle = recorder.dump("test")
        assert len(bundle["spans"]) == 4
        assert [entry["name"] for entry in bundle["spans"]] == [
            "work.6",
            "work.7",
            "work.8",
            "work.9",
        ]

    def test_events_are_stamped_with_seq_and_corr_id(self):
        recorder = FlightRecorder()
        with correlated("corr-ev-1"):
            event = recorder.record_event("pool.respawn", position=3)
        assert event["seq"] == 1
        assert event["kind"] == "pool.respawn"
        assert event["corr_id"] == "corr-ev-1"
        assert event["position"] == 3
        assert recorder.record_event("next")["seq"] == 2

    def test_metric_ring_records_observer_deltas(self):
        recorder = FlightRecorder(max_metrics=2)
        recorder.record_metric("repro_http_requests_total", 1.0, {"status": "200"})
        recorder.record_metric("repro_audit_latency_seconds", 0.25, None)
        recorder.record_metric("repro_audit_latency_seconds", 0.5, None)
        bundle = recorder.dump("test")
        assert [entry["name"] for entry in bundle["metrics"]] == [
            "repro_audit_latency_seconds",
            "repro_audit_latency_seconds",
        ]


class TestDumps:
    def test_dump_snapshots_trigger_corr_and_context(self):
        recorder = FlightRecorder()
        with correlated("corr-dump-1"):
            bundle = recorder.dump("incident-open", incident_id="INC-1", switch="s1")
        assert bundle["record_id"] == "FR-0001"
        assert bundle["trigger"] == "incident-open"
        assert bundle["corr_id"] == "corr-dump-1"
        assert bundle["incident_id"] == "INC-1"
        assert bundle["context"] == {"switch": "s1"}
        assert recorder.record_for_incident("INC-1") is bundle
        assert recorder.record_for_incident("INC-404") is None

    def test_incident_index_does_not_outlive_the_dump_store(self):
        recorder = FlightRecorder(max_dumps=2)
        recorder.dump("incident-open", incident_id="INC-1")
        recorder.dump("incident-open", incident_id="INC-2")
        recorder.dump("incident-open", incident_id="INC-3")
        assert recorder.record_for_incident("INC-1") is None
        assert recorder.record_for_incident("INC-2") is not None
        assert recorder.record_for_incident("INC-3") is not None
        assert len(recorder.dumps()) == 2


class TestAmbientInstallation:
    def test_free_functions_noop_without_a_recorder(self):
        assert record_event("orphan") is None
        assert dump_flightrecord("orphan") is None

    def test_recording_installs_and_restores(self):
        recorder = FlightRecorder()
        with recording(recorder) as installed:
            assert installed is recorder
            assert record_event("seen")["kind"] == "seen"
            assert dump_flightrecord("test", extra=1)["context"] == {"extra": 1}
        assert record_event("after") is None
        assert len(recorder.dumps()) == 1


class TestFailureTriggers:
    def test_worker_respawn_records_and_dumps(self):
        recorder = FlightRecorder()
        pool = WarmWorkerPool(max_workers=2)
        try:
            pool._ensure_workers()
            with recording(recorder):
                pool._respawn(0)
        finally:
            pool.shutdown()
        kinds = [entry["kind"] for entry in recorder.dumps()[-1]["events"]]
        assert "pool.respawn" in kinds
        bundle = recorder.dumps()[-1]
        assert bundle["trigger"] == "worker-respawn"
        assert bundle["context"] == {"position": 0}

    def test_churn_divergence_dumps_before_the_strict_raise(self):
        driver = ChurnDriver.for_workload("small", events=5, seed=7)
        fake = SimpleNamespace(
            semantic_fingerprint=lambda: "deadbeef",
            switches_with_violations=lambda: [],
        )
        driver._full_check = lambda: fake
        recorder = FlightRecorder()
        with recording(recorder):
            with pytest.raises(ChurnDivergenceError):
                driver.checkpoint(seq=5)
        bundle = recorder.dumps()[-1]
        assert bundle["trigger"] == "churn-divergence"
        assert bundle["context"]["seq"] == 5
        assert bundle["context"]["diverged"] is True
