"""Unit tests for attribution reports and the parallel stage breakdown."""

from __future__ import annotations

from repro.obs import attribution, format_attribution, parallel_stage_breakdown


def _span(name, span_id, start, end, parent_id=None, counters=None, **extra):
    payload = {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": 1,
        "thread_id": 1,
        "start": float(start),
        "end": float(end),
    }
    if counters:
        payload["counters"] = counters
    payload.update(extra)
    return payload


class TestAttribution:
    def test_self_time_excludes_direct_children(self):
        spans = [
            _span("outer", 1, 0.0, 10.0),
            _span("inner", 2, 1.0, 5.0, parent_id=1),
            _span("inner", 3, 5.0, 8.0, parent_id=1),
        ]
        by_name = {stat.name: stat for stat in attribution(spans)}
        assert by_name["outer"].total_seconds == 10.0
        assert by_name["outer"].self_seconds == 3.0  # 10 - (4 + 3)
        assert by_name["inner"].count == 2
        assert by_name["inner"].total_seconds == 7.0
        assert by_name["inner"].self_seconds == 7.0

    def test_self_time_clamped_for_concurrent_children(self):
        # Adopted worker spans overlap: children sum past the parent.
        spans = [
            _span("dispatch", 1, 0.0, 2.0),
            _span("shard", 2, 0.0, 1.8, parent_id=1),
            _span("shard", 3, 0.0, 1.9, parent_id=1),
        ]
        by_name = {stat.name: stat for stat in attribution(spans)}
        assert by_name["dispatch"].self_seconds == 0.0

    def test_sorted_by_total_desc_then_name(self):
        spans = [
            _span("b", 1, 0.0, 1.0),
            _span("a", 2, 2.0, 3.0),
            _span("big", 3, 0.0, 5.0),
        ]
        assert [stat.name for stat in attribution(spans)] == ["big", "a", "b"]

    def test_counters_summed_across_spans(self):
        spans = [
            _span("s", 1, 0.0, 1.0, counters={"ops": 10}),
            _span("s", 2, 1.0, 2.0, counters={"ops": 5, "hits": 2}),
        ]
        (stat,) = attribution(spans)
        assert stat.counters == {"ops": 15.0, "hits": 2.0}

    def test_to_dict_shape(self):
        spans = [_span("s", 1, 0.0, 1.0, counters={"n": 1})]
        payload = attribution(spans)[0].to_dict()
        assert payload == {
            "name": "s",
            "count": 1,
            "total_seconds": 1.0,
            "self_seconds": 1.0,
            "counters": {"n": 1.0},
        }

    def test_format_includes_wall_percentages_and_counters(self):
        spans = [_span("stage.x", 1, 0.0, 1.0, counters={"ops": 4})]
        text = format_attribution(attribution(spans), wall_seconds=2.0)
        assert "stage.x" in text
        assert "50.0%" in text
        assert "[ops=4]" in text

    def test_empty_attribution(self):
        assert attribution([]) == []
        assert "stage" in format_attribution([])


class TestParallelStageBreakdown:
    def _synthetic_trace(self):
        """Two shards on two workers inside a 1.0s dispatch window."""
        return [
            _span("check.compile_logical", 1, 0.0, 0.1),
            _span("check.collect_deployed", 2, 0.1, 0.15),
            _span("parallel.identity_proof", 5, 0.15, 0.175),
            _span("parallel.plan", 3, 0.175, 0.2),
            _span("parallel.build_tasks", 4, 0.2, 0.3),
            _span("parallel.dispatch", 6, 0.3, 1.3),
            # Worker shard 1: 0.8s busy, BDD build inside the check phase.
            _span("worker.shard", 7, 0.0, 0.8, parent_id=6),
            _span("worker.unpickle", 8, 0.0, 0.1, parent_id=7),
            _span("worker.check", 9, 0.1, 0.7, parent_id=7),
            _span("verify.bdd.build", 10, 0.1, 0.5, parent_id=9),
            _span("worker.serialize", 11, 0.7, 0.8, parent_id=7),
            # Worker shard 2: same shape.
            _span("worker.shard", 12, 0.0, 0.8, parent_id=6),
            _span("worker.unpickle", 13, 0.0, 0.1, parent_id=12),
            _span("worker.check", 14, 0.1, 0.7, parent_id=12),
            _span("verify.bdd.build", 15, 0.1, 0.5, parent_id=14),
            _span("worker.serialize", 16, 0.7, 0.8, parent_id=12),
            _span("parallel.merge", 17, 1.3, 1.4),
        ]

    def test_stages_tile_the_wall_clock(self):
        breakdown = parallel_stage_breakdown(self._synthetic_trace(), 1.5, workers=2)
        stages = breakdown["stages"]
        assert breakdown["workers_used"] == 2
        assert breakdown["shards"] == 2
        assert stages["compile_logical"] == 0.1
        assert abs(stages["identity_proof"] - 0.025) < 1e-9
        assert abs(stages["plan"] - 0.025) < 1e-9
        assert abs(stages["pickle"] - 0.1) < 1e-9
        # Worker busy normalised by 2 concurrent workers: 1.6/2 = 0.8s; the
        # dispatch window is 1.0s, so the 0.2s residue is spawn/IPC.
        assert abs(stages["worker_spawn_and_ipc"] - 0.2) < 1e-9
        assert abs(stages["worker_unpickle"] - 0.1) < 1e-9
        assert abs(stages["worker_bdd_build"] - 0.4) < 1e-9
        assert abs(stages["worker_check"] - 0.2) < 1e-9
        assert abs(stages["worker_serialize"] - 0.1) < 1e-9
        assert abs(breakdown["accounted_seconds"] - sum(stages.values())) < 1e-9
        assert breakdown["coverage"] > 0.9

    def test_bdd_build_outside_workers_not_misattributed(self):
        spans = self._synthetic_trace() + [
            _span("verify.bdd.build", 18, 1.3, 1.35, parent_id=17)
        ]
        breakdown = parallel_stage_breakdown(spans, 1.5, workers=2)
        # The merge-side build is not a descendant of worker.check.
        assert abs(breakdown["stages"]["worker_bdd_build"] - 0.4) < 1e-9

    def test_workers_used_capped_by_shards(self):
        breakdown = parallel_stage_breakdown(self._synthetic_trace(), 1.5, workers=8)
        assert breakdown["workers_used"] == 2

    def test_dominant_stage(self):
        breakdown = parallel_stage_breakdown(self._synthetic_trace(), 1.5, workers=2)
        assert breakdown["dominant_stage"] in breakdown["stages"]

    def test_empty_trace_has_zero_coverage(self):
        breakdown = parallel_stage_breakdown([], 1.0, workers=4)
        assert breakdown["coverage"] == 0.0
        assert breakdown["shards"] == 0
