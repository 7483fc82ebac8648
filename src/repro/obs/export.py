"""Trace exporters: JSONL (round-trippable) and Chrome ``trace_event``.

The Chrome format is the `trace_event` JSON understood by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): complete
events (``ph: "X"``) with microsecond timestamps, grouped by ``pid`` /
``tid`` tracks.  Span ``perf_counter`` timebases are per-process, so
events from worker processes land on their own track rather than being
aligned against the parent — durations, which is what attribution cares
about, are exact either way.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from .trace import Span

__all__ = [
    "chrome_trace",
    "span_dicts",
    "write_chrome",
    "write_jsonl",
]

SpanLike = Union[Span, Dict[str, Any]]


def span_dicts(spans: Iterable[SpanLike]) -> List[Dict[str, Any]]:
    """Normalise a mix of :class:`Span` objects and plain dicts to dicts."""
    return [item.to_dict() if isinstance(item, Span) else dict(item) for item in spans]


# ---------------------------------------------------------------------- #
# JSONL
# ---------------------------------------------------------------------- #
def write_jsonl(spans: Iterable[SpanLike], path: str) -> int:
    """Write one span dict per line; returns the number of spans written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for payload in span_dicts(spans):
            handle.write(json.dumps(payload, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


# ---------------------------------------------------------------------- #
# Chrome trace_event
# ---------------------------------------------------------------------- #
def chrome_trace(spans: Sequence[SpanLike]) -> Dict[str, Any]:
    """Convert spans to a ``chrome://tracing`` / Perfetto JSON object."""
    events: List[Dict[str, Any]] = []
    for payload in span_dicts(spans):
        args: Dict[str, Any] = {}
        args.update(payload.get("attrs", {}))
        args.update(payload.get("counters", {}))
        start = float(payload["start"])
        end = float(payload["end"])
        events.append(
            {
                "name": payload["name"],
                "cat": "repro",
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "pid": payload.get("pid", 0),
                "tid": payload.get("thread_id", 0),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(spans: Sequence[SpanLike], path: str) -> int:
    """Write a Chrome trace JSON file; returns the number of events."""
    trace = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    return len(trace["traceEvents"])
