"""Unit tests for the span/collector core of ``repro.obs``."""

from __future__ import annotations

import contextvars
import threading

from repro.obs import (
    NOOP_SPAN,
    Span,
    TraceCollector,
    activated,
    current,
    span,
    traced,
)
from repro.obs.trace import install


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

    def test_install_sets_the_context_collector(self):
        collector = TraceCollector()

        def installed():
            install(collector)
            return current()

        assert contextvars.copy_context().run(installed) is collector
        assert current() is None


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


class TestTracedDecorator:
    def test_decorator_records_qualified_name(self):
        collector = TraceCollector()

        @traced()
        def crunch(x):
            return x * 2

        with activated(collector):
            assert crunch(21) == 42
        (recorded,) = collector.spans()
        assert recorded.name.startswith("test_obs_trace.")
        assert recorded.name.endswith(".crunch")

    def test_decorator_with_explicit_name_and_attrs(self):
        collector = TraceCollector()

        @traced("custom.stage", flavor="test")
        def noop():
            return None

        with activated(collector):
            noop()
        (recorded,) = collector.spans()
        assert recorded.name == "custom.stage"
        assert recorded.attrs == {"flavor": "test"}

    def test_decorator_is_free_without_collector(self):
        @traced()
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
