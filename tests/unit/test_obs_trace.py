"""Unit tests for the span/collector core of ``repro.obs``."""

from __future__ import annotations

import contextvars
import gc
import threading

from repro.obs import (
    NOOP_SPAN,
    Span,
    TraceCollector,
    activated,
    current,
    span,
)


class TestSpanBasics:
    def test_span_records_timing_and_identity(self):
        collector = TraceCollector()
        with collector.span("stage.one", size=3) as recorded:
            pass
        assert recorded.span_id == 1
        assert recorded.parent_id is None
        assert recorded.end >= recorded.start
        assert recorded.duration >= 0
        assert recorded.attrs == {"size": 3}
        assert collector.spans() == [recorded]

    def test_nesting_tracks_parent_child(self):
        collector = TraceCollector()
        with collector.span("outer") as outer:
            with collector.span("middle") as middle:
                with collector.span("inner") as inner:
                    pass
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        # Finish order is innermost-first.
        assert [s.name for s in collector.spans()] == ["inner", "middle", "outer"]

    def test_siblings_share_a_parent(self):
        collector = TraceCollector()
        with collector.span("parent") as parent:
            with collector.span("a") as a:
                pass
            with collector.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_counters_accumulate(self):
        collector = TraceCollector()
        with collector.span("s") as recorded:
            recorded.count("hits")
            recorded.count("hits", 2)
            recorded.set("engine", "bdd")
        assert recorded.counters == {"hits": 3}
        assert recorded.attrs == {"engine": "bdd"}

    def test_to_dict_from_dict_round_trip(self):
        collector = TraceCollector()
        with collector.span("s", kind="x") as recorded:
            recorded.count("n", 5)
        payload = recorded.to_dict()
        restored = Span.from_dict(payload, collector)
        assert restored.to_dict() == payload

    def test_per_thread_parent_stacks(self):
        collector = TraceCollector()
        seen = {}

        def worker():
            with collector.span("thread.child") as child:
                seen["parent_id"] = child.parent_id

        with collector.span("main.parent"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's span must NOT adopt this thread's open span.
        assert seen["parent_id"] is None


class TestDisabledPath:
    def test_disabled_collector_returns_shared_noop(self):
        collector = TraceCollector(enabled=False)
        assert collector.span("anything") is NOOP_SPAN
        assert len(collector) == 0

    def test_free_function_without_active_collector_is_noop(self):
        assert current() is None
        assert span("free.stage") is NOOP_SPAN

    def test_noop_span_supports_full_api(self):
        with span("nothing") as s:
            assert s.set("k", 1) is s
            assert s.count("c") is s

    def test_activated_scopes_the_collector(self):
        collector = TraceCollector()
        with activated(collector):
            assert current() is collector
            with span("scoped"):
                pass
        assert current() is None
        assert [s.name for s in collector.spans()] == ["scoped"]

    def test_activated_sets_only_its_own_context(self):
        collector = TraceCollector()
        outer = contextvars.copy_context()

        def inside():
            with activated(collector):
                return current(), outer.run(current)

        assert contextvars.copy_context().run(inside) == (collector, None)
        assert current() is None


class TestGarbageCollection:
    """A collection is charged to the innermost open span of the thread that
    collected, as counters: no span of its own."""

    def test_a_collection_is_charged_to_the_innermost_span(self):
        collector = TraceCollector()
        gc.collect()  # no young objects left to start one on its own
        with activated(collector):
            with span("parent") as parent:
                with span("child") as child:
                    gc.collect()
        assert child.counters["gc_collections"] >= 1
        assert child.counters["gc_ms"] > 0
        assert "gc_ms" not in parent.counters
        assert "gc_collections" not in parent.counters
        assert [s.name for s in collector.spans()] == ["child", "parent"]

    def test_nothing_is_recorded_without_an_active_collector(self):
        collector = TraceCollector()
        with collector.span("not.active") as recorded:
            gc.collect()
        assert recorded.counters == {}
        with activated(collector):
            gc.collect()  # active, but no span is open
            with activated(TraceCollector(enabled=False)):
                gc.collect()
        assert [s.name for s in collector.spans()] == ["not.active"]
        assert recorded.counters == {}

    def test_only_the_collecting_thread_is_charged(self):
        collector = TraceCollector()
        charged = []

        def worker():
            with activated(collector), span("worker") as mine:
                gc.collect()
            charged.append(mine)

        gc.collect()
        with activated(collector), span("main") as main:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert charged[0].counters["gc_collections"] >= 1
        assert "gc_collections" not in main.counters


class TestCollector:
    def test_max_spans_drops_and_counts(self):
        collector = TraceCollector(max_spans=2)
        for index in range(4):
            with collector.span(f"s{index}"):
                pass
        assert len(collector) == 2
        assert collector.dropped == 2
        collector.clear()
        assert len(collector) == 0
        assert collector.dropped == 0

    def test_a_full_buffer_rolls_and_keeps_the_newest_spans(self):
        collector = TraceCollector(max_spans=3)
        seen = []
        collector.add_sink(lambda finished: seen.append(finished.name))
        for index in range(6):
            with collector.span(f"s{index}"):
                pass
        assert [held.name for held in collector.spans()] == ["s3", "s4", "s5"]
        assert collector.dropped == 3
        # Adopted spans roll the same buffer; the sinks still see everything.
        worker_side = TraceCollector()
        for name in ("w0", "w1"):
            with worker_side.span(name):
                pass
        collector.adopt([held.to_dict() for held in worker_side.spans()])
        assert [held.name for held in collector.spans()] == ["s5", "w0", "w1"]
        assert collector.dropped == 5
        assert seen == ["s0", "s1", "s2", "s3", "s4", "s5", "w0", "w1"]

    def test_sink_sees_every_finished_span(self):
        collector = TraceCollector()
        names = []
        collector.add_sink(lambda finished: names.append(finished.name))
        with collector.span("a"):
            with collector.span("b"):
                pass
        assert names == ["b", "a"]

    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = TraceCollector()
        with worker.span("worker.shard"):
            with worker.span("worker.check"):
                pass
        payloads = [s.to_dict() for s in worker.spans()]

        parent = TraceCollector()
        with parent.span("dispatch") as dispatch:
            pass
        adopted = parent.adopt(payloads, parent=dispatch)

        by_name = {s.name: s for s in adopted}
        shard, check = by_name["worker.shard"], by_name["worker.check"]
        # Root re-parented under the dispatch span, internal link preserved.
        assert shard.parent_id == dispatch.span_id
        assert check.parent_id == shard.span_id
        # Remapped ids cannot collide with locally issued ones.
        local_ids = {dispatch.span_id}
        assert {shard.span_id, check.span_id}.isdisjoint(local_ids)
        assert len(parent) == 3

    def test_adopt_feeds_sinks(self):
        worker = TraceCollector()
        with worker.span("worker.shard"):
            pass
        parent = TraceCollector()
        names = []
        parent.add_sink(lambda finished: names.append(finished.name))
        parent.adopt([s.to_dict() for s in worker.spans()])
        assert names == ["worker.shard"]

