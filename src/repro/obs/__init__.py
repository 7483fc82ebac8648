"""Dependency-free tracing & profiling for the reproduction.

Quick start::

    from repro.obs import TraceCollector, activated, span

    collector = TraceCollector()
    with activated(collector):
        with span("my.stage", shape="demo") as s:
            s.count("items", 3)
            ...

    from repro.obs import attribution, format_attribution
    print(format_attribution(attribution(collector.spans())))

Instrumented code calls :func:`span` unconditionally; when no collector is
active the call returns a shared no-op object, so tracing costs almost
nothing when disabled.

Beyond profiling, the package carries the operator-debugging layer:
:mod:`~repro.obs.corr` (correlation ids propagated onto every span),
:mod:`~repro.obs.recorder` (the flight recorder dumped when something
breaks), and :mod:`~repro.obs.health` (component health + SLO burn rates).
"""

from .corr import correlated, current_corr_id, new_corr_id
from .export import chrome_trace, span_dicts, write_chrome, write_jsonl
from .health import ComponentHealth, HealthRegistry, HealthStatus, SloTracker
from .recorder import (
    FlightRecorder,
    dump_flightrecord,
    format_flightrecord,
    record_event,
    recording,
)
from .report import (
    StageStat,
    attribution,
    format_attribution,
    parallel_stage_breakdown,
)
from .trace import (
    NOOP_SPAN,
    Span,
    TraceCollector,
    activated,
    current,
    span,
)

__all__ = [
    "NOOP_SPAN",
    "ComponentHealth",
    "FlightRecorder",
    "HealthRegistry",
    "HealthStatus",
    "SloTracker",
    "Span",
    "StageStat",
    "TraceCollector",
    "activated",
    "attribution",
    "chrome_trace",
    "correlated",
    "current",
    "current_corr_id",
    "dump_flightrecord",
    "format_attribution",
    "format_flightrecord",
    "new_corr_id",
    "parallel_stage_breakdown",
    "record_event",
    "recording",
    "span",
    "span_dicts",
    "write_chrome",
    "write_jsonl",
]
