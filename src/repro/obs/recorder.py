"""Flight recorder: bounded black-box buffers dumped at the moment of failure.

An aircraft flight recorder does not log the whole flight — it keeps the
last N minutes in a ring and survives the crash.  This module does the same
for the daemon: three bounded deques of recent **spans** (fed as a
:class:`~repro.obs.trace.TraceCollector` sink), **structured events** (bus
traffic, pool respawns, churn checkpoints), and **metric deltas** (every
counter/histogram observation).  Steady state costs a dict copy and a deque
append per observation; nothing is written anywhere.

When something goes wrong — an incident opens, a warm worker dies, a
:class:`~repro.churn.driver.ChurnDivergenceError` fires, a handler 500s —
:meth:`FlightRecorder.dump` snapshots all three rings into a self-contained
JSON bundle stamped with the trigger, the ambient correlation id, and any
caller context.  Bundles are held in a bounded store, indexed by incident
when one is involved, and served over ``GET /incidents/{id}/flightrecord``.

Like the tracer's ``activated()``, installation is a ContextVar: components
deep in the stack (:meth:`WarmWorkerPool._respawn`,
:meth:`ChurnDriver.checkpoint`) call the free functions
:func:`record_event` / :func:`dump_flightrecord`, which no-op unless a
recorder is installed with :func:`recording` — library code stays free of
service plumbing.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Deque, Dict, Iterator, List, Optional

from .corr import current_corr_id

__all__ = [
    "FlightRecorder",
    "dump_flightrecord",
    "format_flightrecord",
    "record_event",
    "recording",
]

_ACTIVE_RECORDER: ContextVar[Optional["FlightRecorder"]] = ContextVar(
    "repro_flight_recorder", default=None
)


#: How many events the event ring keeps.
MAX_EVENTS = 512
#: How many metric observations the metric ring keeps.
MAX_METRICS = 512
#: How many dumped bundles the recorder keeps (and indexes by incident).
MAX_DUMPS = 32


class FlightRecorder:
    """Bounded rings of recent spans/events/metrics plus a bounded dump store."""

    def __init__(self, max_spans: int = 512) -> None:
        self._spans: Deque[Dict[str, Any]] = deque(maxlen=max_spans)
        self._events: Deque[Dict[str, Any]] = deque(maxlen=MAX_EVENTS)
        self._metrics: Deque[Dict[str, Any]] = deque(maxlen=MAX_METRICS)
        self._dumps: Deque[Dict[str, Any]] = deque(maxlen=MAX_DUMPS)
        self._by_incident: Dict[str, Dict[str, Any]] = {}
        self._event_seq = itertools.count(1)
        self._dump_seq = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Feeding the rings
    # ------------------------------------------------------------------ #
    def record_span(self, span: Any) -> None:
        """Collector sink: keep the finished span's dict form in the ring."""
        self._spans.append(span.to_dict())

    def record_event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one structured event, stamped with seq + corr id + time."""
        event = {
            "seq": next(self._event_seq),
            "kind": kind,
            "corr_id": current_corr_id(),
            "recorded_at": time.time(),
        }
        event.update(fields)
        self._events.append(event)
        return event

    def record_metric(
        self, name: str, value: float, labels: Optional[Dict[str, str]] = None
    ) -> None:
        """Append one metric observation (a registry observer hook)."""
        self._metrics.append(
            {"name": name, "value": value, "labels": dict(labels or {})}
        )

    # ------------------------------------------------------------------ #
    # Dumping and retrieval
    # ------------------------------------------------------------------ #
    def dump(
        self,
        trigger: str,
        corr_id: Optional[str] = None,
        incident_id: Optional[str] = None,
        **context: Any,
    ) -> Dict[str, Any]:
        """Snapshot the rings into a bundle; index it by incident if given."""
        bundle = {
            "record_id": f"FR-{next(self._dump_seq):04d}",
            "trigger": trigger,
            "corr_id": corr_id if corr_id is not None else current_corr_id(),
            "incident_id": incident_id,
            "context": dict(context),
            "dumped_at": time.time(),
            "spans": list(self._spans),
            "events": list(self._events),
            "metrics": list(self._metrics),
        }
        self._dumps.append(bundle)
        if incident_id is not None:
            self._by_incident[incident_id] = bundle
            # The incident index must not outlive the bounded dump store.
            live = {id(dump) for dump in self._dumps}
            self._by_incident = {
                key: dump
                for key, dump in self._by_incident.items()
                if id(dump) in live
            }
        return bundle

    def dumps(self) -> List[Dict[str, Any]]:
        """Every retained bundle, oldest first."""
        return list(self._dumps)

    def record_for_incident(self, incident_id: str) -> Optional[Dict[str, Any]]:
        return self._by_incident.get(incident_id)


# ---------------------------------------------------------------------- #
# Ambient installation (mirrors trace.activated)
# ---------------------------------------------------------------------- #
@contextmanager
def recording(recorder: FlightRecorder) -> Iterator[FlightRecorder]:
    """Install ``recorder`` as the ambient flight recorder for the block."""
    token = _ACTIVE_RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE_RECORDER.reset(token)


def record_event(kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
    """Record a structured event on the ambient recorder; no-op without one."""
    recorder = _ACTIVE_RECORDER.get()
    if recorder is None:
        return None
    return recorder.record_event(kind, **fields)


def dump_flightrecord(trigger: str, **context: Any) -> Optional[Dict[str, Any]]:
    """Dump the ambient recorder's rings; no-op without an installed one."""
    recorder = _ACTIVE_RECORDER.get()
    if recorder is None:
        return None
    return recorder.dump(trigger, **context)


# ---------------------------------------------------------------------- #
# Pretty-printing (repro-trace flightrecord)
# ---------------------------------------------------------------------- #
def format_flightrecord(bundle: Dict[str, Any], max_events: int = 10) -> str:
    """Render a dumped bundle as header + span tree + trailing events."""
    lines = [
        f"flight record {bundle.get('record_id', '?')}"
        f"  trigger={bundle.get('trigger', '?')}"
        f"  corr_id={bundle.get('corr_id')}",
    ]
    if bundle.get("incident_id"):
        lines.append(f"incident: {bundle['incident_id']}")
    context = bundle.get("context") or {}
    if context:
        rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        lines.append(f"context: {rendered}")

    spans = bundle.get("spans") or []
    lines.append(f"spans ({len(spans)} buffered):")
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    known = {span.get("span_id") for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in known:
            parent = None  # orphaned by the ring bound: promote to root
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: (span.get("start") or 0.0, span.get("span_id")))

    def walk(parent: Optional[int], depth: int) -> None:
        for span in children.get(parent, ()):
            start, end = span.get("start"), span.get("end")
            timing = ""
            if start is not None and end is not None:
                timing = f" {max(0.0, end - start) * 1000:.2f}ms"
            attrs = span.get("attrs") or {}
            corr = attrs.get("corr_id")
            tag = f" [{corr}]" if corr else ""
            lines.append(f"  {'  ' * depth}{span.get('name', '?')}{timing}{tag}")
            walk(span.get("span_id"), depth + 1)

    walk(None, 0)

    events = list(bundle.get("events") or [])
    shown = events[-max_events:] if max_events >= 0 else events
    lines.append(f"events (last {len(shown)} of {len(events)}):")
    for event in shown:
        extras = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "kind", "corr_id", "recorded_at")
        }
        detail = f"  {json.dumps(extras, sort_keys=True)}" if extras else ""
        corr = event.get("corr_id")
        tag = f" [{corr}]" if corr else ""
        head = f"#{event.get('seq', '?')} {event.get('kind', '?')}"
        lines.append(f"  {head}{tag}{detail}")
    return "\n".join(lines)
