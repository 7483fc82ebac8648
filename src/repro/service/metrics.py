"""A tiny in-process metrics registry with Prometheus text rendering.

Three instrument kinds cover what the service exposes on ``/metrics``:

* **counters** — monotonically increasing, optionally labelled
  (``repro_http_requests_total{method="GET",status="200"}``);
* **summaries** — observation streams rendered as ``{quantile="..."}``
  series plus ``_count`` / ``_sum`` pairs (audit latencies, per-stage
  pipeline timings).  Summaries accept labels, so one metric name can
  carry many series (``repro_stage_seconds{stage="check.switch"}``);
* **gauges** — computed at render time from a callback, so values like
  "open incidents" always reflect the live store instead of a shadow
  counter that can drift.

Quantiles are snapshots over a bounded sliding window of the most recent
observations (:data:`SUMMARY_WINDOW` per series): exact for short-lived
services, recency-weighted for long-running daemons, and O(window) memory
either way.  ``_count`` and ``_sum`` remain exact over the series lifetime.

The render output is the Prometheus text exposition format, which existing
scrape pipelines ingest as-is; no client library is required.  Label values
are escaped per the exposition spec (backslash, double quote, newline) and
non-finite values render as ``+Inf`` / ``-Inf`` / ``NaN``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["PROMETHEUS_CONTENT_TYPE", "SUMMARY_QUANTILES", "MetricsRegistry"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles every summary renders, as ``{quantile="..."}`` series.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: How many of a series' most recent observations back its quantiles.
SUMMARY_WINDOW = 1024

#: Sorted ``(key, value)`` label pairs — the hashable identity of one series.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelKey:
    return tuple(sorted((labels or {}).items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _quantile(sorted_window: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted, non-empty window."""
    if len(sorted_window) == 1:
        return sorted_window[0]
    position = q * (len(sorted_window) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_window) - 1)
    fraction = position - lower
    return sorted_window[lower] * (1.0 - fraction) + sorted_window[upper] * fraction


class _SummarySeries:
    """One labelled summary series: exact count/sum + bounded sample window."""

    __slots__ = ("count", "total", "window")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.window: Deque[float] = deque(maxlen=SUMMARY_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.window.append(value)


class MetricsRegistry:
    """Counters, summaries and computed gauges behind one render call.

    Thread-safe by a single lock: in the async daemon the audit worker
    thread records job metrics while request threads count requests and
    render ``/metrics``, so every read-modify-write and every iteration
    over the instrument maps happens under ``_lock``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._summaries: Dict[str, Dict[LabelKey, _SummarySeries]] = {}
        self._gauges: Dict[str, Dict[LabelKey, Callable[[], float]]] = {}
        self._help: Dict[str, str] = {}
        self._observer: Optional[
            Callable[[str, float, Optional[Dict[str, str]]], None]
        ] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def inc(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        value: float = 1.0,
        help: str = "",
    ) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + value
            if help:
                self._help.setdefault(name, help)
            observer = self._observer
        if observer is not None:
            observer(name, value, labels)

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        key = _label_key(labels)
        with self._lock:
            by_label = self._summaries.setdefault(name, {})
            series = by_label.get(key)
            if series is None:
                series = by_label[key] = _SummarySeries()
            series.observe(float(value))
            if help:
                self._help.setdefault(name, help)
            observer = self._observer
        if observer is not None:
            observer(name, float(value), labels)

    def gauge(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Register a gauge computed from live state at every render.

        ``labels`` makes one metric name carry several computed series
        (``repro_health_status{component="monitor"}`` et al.).
        """
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = fn
            if help:
                self._help.setdefault(name, help)

    def set_observer(
        self, fn: Optional[Callable[[str, float, Optional[Dict[str, str]]], None]]
    ) -> None:
        """One callback fired (outside the lock) per inc/observe.

        The flight recorder uses this to keep its metric-delta ring current
        without the registry knowing the recorder exists.
        """
        with self._lock:
            self._observer = fn

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        # Snapshot under the lock; gauge callbacks (which read live service
        # state, not this registry) run outside it.
        with self._lock:
            counters = {name: dict(series) for name, series in self._counters.items()}
            summaries = {
                name: {
                    key: (series.count, series.total, sorted(series.window))
                    for key, series in by_label.items()
                }
                for name, by_label in self._summaries.items()
            }
            gauges = {name: dict(series) for name, series in self._gauges.items()}
            help_text = dict(self._help)

        lines: List[str] = []

        def header(name: str, kind: str) -> None:
            if name in help_text:
                lines.append(f"# HELP {name} {help_text[name]}")
            lines.append(f"# TYPE {name} {kind}")

        for name in sorted(counters):
            header(name, "counter")
            for key in sorted(counters[name]):
                value = counters[name][key]
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        for name in sorted(summaries):
            header(name, "summary")
            for key in sorted(summaries[name]):
                count, total, window = summaries[name][key]
                for q in SUMMARY_QUANTILES:
                    quantile_key = tuple(
                        sorted(key + (("quantile", _format_value(q)),))
                    )
                    # A series exists once it has an observation, so its
                    # window is never empty.
                    rendered = _format_value(_quantile(window, q))
                    lines.append(f"{name}{_format_labels(quantile_key)} {rendered}")
                lines.append(f"{name}_count{_format_labels(key)} {count}")
                lines.append(f"{name}_sum{_format_labels(key)} {_format_value(total)}")
        for name in sorted(gauges):
            header(name, "gauge")
            for key in sorted(gauges[name]):
                value = gauges[name][key]()
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"
