"""Unit tests for the JSONL and Chrome ``trace_event`` exporters."""

from __future__ import annotations

import json

from repro.obs import (
    TraceCollector,
    chrome_trace,
    span_dicts,
    write_chrome,
    write_jsonl,
)


def _sample_collector():
    collector = TraceCollector()
    with collector.span("outer", profile="small") as outer:
        outer.count("items", 7)
        with collector.span("inner"):
            pass
    return collector


def _lines(path):
    """The JSON documents of a JSONL file, one a line."""
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        collector = _sample_collector()
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(collector.spans(), str(path))
        assert written == 2
        assert _lines(path) == span_dicts(collector.spans())

    def test_dicts_pass_through(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        payload = {"name": "s", "span_id": 1, "start": 0.0, "end": 0.5}
        write_jsonl([payload], str(path))
        assert _lines(path) == [payload]

    def test_nothing_written_is_an_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_jsonl([], str(path)) == 0
        assert path.read_text() == ""

    def test_each_line_has_sorted_keys(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl([{"start": 0.0, "name": "s", "end": 1.0, "span_id": 1}], str(path))
        assert path.read_text() == '{"end": 1.0, "name": "s", "span_id": 1, "start": 0.0}\n'


class TestChromeTrace:
    def test_complete_events_with_microsecond_times(self):
        collector = _sample_collector()
        trace = chrome_trace(collector.spans())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        by_name = {event["name"]: event for event in events}
        outer = by_name["outer"]
        assert outer["ph"] == "X"
        assert outer["cat"] == "repro"
        recorded = next(s for s in collector.spans() if s.name == "outer")
        assert outer["ts"] == recorded.start * 1e6
        assert outer["dur"] == (recorded.end - recorded.start) * 1e6
        # Attributes and counters both land in args.
        assert outer["args"] == {"profile": "small", "items": 7}
        assert isinstance(outer["pid"], int) and isinstance(outer["tid"], int)

    def test_write_chrome_is_valid_json(self, tmp_path):
        collector = _sample_collector()
        path = tmp_path / "trace.json"
        assert write_chrome(collector.spans(), str(path)) == 2
        loaded = json.loads(path.read_text())
        assert loaded == chrome_trace(collector.spans())

    def test_export_import_export_round_trip(self, tmp_path):
        """JSONL → adopt → Chrome keeps the same event set."""
        collector = _sample_collector()
        path = tmp_path / "trace.jsonl"
        write_jsonl(collector.spans(), str(path))
        other = TraceCollector()
        other.adopt(_lines(path))
        original = chrome_trace(collector.spans())["traceEvents"]
        adopted = chrome_trace(other.spans())["traceEvents"]
        # Adoption remaps span ids, but Chrome events carry none — identical.
        assert adopted == original

    def test_empty_trace(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}
