"""Hierarchical spans and a process-local trace collector.

The reproduction needs per-stage attribution of verification cost (where do
the milliseconds go: BDD construction, pickling, worker startup, shard
execution?).  This module provides the primitive: a **span** — a named,
timed region with typed attributes and counter deltas — and a
``TraceCollector`` that records finished spans.

Design constraints, in order:

* **near-zero cost when disabled** — every instrumented hot path calls the
  free function :func:`span`; when no collector is active (or the active
  collector is disabled) it returns a shared no-op object whose context
  manager protocol does nothing.  The fast path is one ``ContextVar.get``
  plus one attribute check.
* **dependency-free** — stdlib only, like the rest of the repo.
* **thread- and process-aware** — spans record ``pid`` and ``thread_id``;
  the parent/child relationship is tracked per thread, and spans recorded
  in worker processes can be shipped back as plain dicts and re-attached to
  a parent trace with :meth:`TraceCollector.adopt`.

Timestamps are ``time.perf_counter()`` values: durations are exact within a
process, absolute values are only comparable within one process (the Chrome
exporter keys on ``pid`` so cross-process traces still render sensibly).

Garbage collection is charged where it lands: while a collector is active,
a ``gc.callbacks`` hook adds each collection's milliseconds and one
collection to the ``gc_ms`` / ``gc_collections`` counters of the innermost
open span of the thread that collected — no span of its own, so the
collector's time stays inside the span that paid for it.
"""

from __future__ import annotations

import gc
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .corr import current_corr_id

__all__ = [
    "NOOP_SPAN",
    "Span",
    "TraceCollector",
    "activated",
    "current",
    "span",
]

AttrValue = Union[str, int, float, bool]


class _NoopSpan:
    """Shared do-nothing span returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, key: str, value: AttrValue) -> "_NoopSpan":
        return self

    def count(self, name: str, delta: float = 1) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """A timed, named region of work.

    Use as a context manager; timing starts at ``__enter__`` and stops at
    ``__exit__``, at which point the span is handed to its collector.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "pid",
        "thread_id",
        "start",
        "end",
        "attrs",
        "counters",
        "_collector",
    )

    def __init__(
        self,
        collector: "TraceCollector",
        name: str,
        attrs: Optional[Dict[str, AttrValue]] = None,
    ) -> None:
        self.name = name
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.pid = os.getpid()
        self.thread_id = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, AttrValue] = dict(attrs) if attrs else {}
        self.counters: Dict[str, float] = {}
        self._collector = collector

    # ------------------------------------------------------------------ #
    # Context manager protocol
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Span":
        collector = self._collector
        self.span_id = next(collector._ids)
        stack = collector._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        corr = current_corr_id()
        if corr is not None and "corr_id" not in self.attrs:
            self.attrs["corr_id"] = corr
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        stack = self._collector._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit — drop self wherever it is, keep going
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._collector._finish(self)

    # ------------------------------------------------------------------ #
    # Annotation
    # ------------------------------------------------------------------ #
    def set(self, key: str, value: AttrValue) -> "Span":
        """Attach a typed attribute (str/int/float/bool)."""
        self.attrs[key] = value
        return self

    def count(self, name: str, delta: float = 1) -> "Span":
        """Accumulate a named counter delta on this span."""
        self.counters[name] = self.counters.get(name, 0) + delta
        return self

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "thread_id": self.thread_id,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.counters:
            payload["counters"] = dict(self.counters)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], collector: "TraceCollector") -> "Span":
        restored = cls(collector, payload["name"], payload.get("attrs"))
        restored.span_id = payload["span_id"]
        restored.parent_id = payload.get("parent_id")
        restored.pid = payload.get("pid", os.getpid())
        restored.thread_id = payload.get("thread_id", 0)
        restored.start = payload["start"]
        restored.end = payload["end"]
        restored.counters = dict(payload.get("counters", {}))
        return restored

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, dur={self.duration:.6f}s)"


class TraceCollector:
    """Process-local store of finished spans.

    ``enabled=False`` makes every :meth:`span` call return :data:`NOOP_SPAN`,
    so instrumentation left in hot paths costs one boolean check.
    ``max_spans`` bounds memory: a full buffer rolls, each span finished past
    the cap evicting the oldest one held, and :attr:`dropped` counts the
    evictions.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._ids = itertools.count(1)
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sinks: List[Callable[[Span], None]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: AttrValue) -> Union[Span, _NoopSpan]:
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs or None)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _keep(self, finished: Span) -> None:
        """Buffer ``finished`` (the caller holds the lock)."""
        if len(self._spans) == self.max_spans:
            self.dropped += 1
        self._spans.append(finished)

    def _finish(self, finished: Span) -> None:
        with self._lock:
            self._keep(finished)
            sinks = list(self._sinks)
        for sink in sinks:
            sink(finished)

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        """Register a callback invoked (outside the lock) per finished span."""
        with self._lock:
            self._sinks.append(sink)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # ------------------------------------------------------------------ #
    # Cross-process adoption
    # ------------------------------------------------------------------ #
    def adopt(
        self,
        payloads: Sequence[Dict[str, Any]],
        parent: Optional[Union[Span, int]] = None,
    ) -> List[Span]:
        """Attach spans recorded elsewhere (e.g. a worker process).

        Span ids are remapped onto this collector's id space so they cannot
        collide with locally recorded spans; internal parent/child links are
        preserved, and roots (spans whose parent is unknown here) are
        re-parented under ``parent`` when given.
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        corr = current_corr_id()
        id_map: Dict[int, int] = {}
        adopted: List[Span] = []
        for payload in payloads:
            restored = Span.from_dict(payload, self)
            if corr is not None and "corr_id" not in restored.attrs:
                restored.attrs["corr_id"] = corr
            id_map[restored.span_id] = next(self._ids)
            adopted.append(restored)
        for restored in adopted:
            restored.span_id = id_map[restored.span_id]
            if restored.parent_id in id_map:
                restored.parent_id = id_map[restored.parent_id]
            else:
                restored.parent_id = parent_id
        with self._lock:
            for restored in adopted:
                self._keep(restored)
            sinks = list(self._sinks)
        for sink in sinks:
            for restored in adopted:
                sink(restored)
        return adopted


# ---------------------------------------------------------------------- #
# Module-level active collector
# ---------------------------------------------------------------------- #
_ACTIVE: ContextVar[Optional[TraceCollector]] = ContextVar(
    "repro_trace_collector", default=None
)


def current() -> Optional[TraceCollector]:
    """The active collector, or ``None`` when tracing is off."""
    return _ACTIVE.get()


@contextmanager
def activated(collector: TraceCollector) -> Iterator[TraceCollector]:
    """Activate ``collector`` for the duration of the block, then restore."""
    token = _ACTIVE.set(collector)
    try:
        yield collector
    finally:
        _ACTIVE.reset(token)


#: The span a running collection is charged to, and when it started.
_collecting: Optional[Tuple[Span, float]] = None


def _charge_collection(phase: str, info: Dict[str, int]) -> None:
    """``gc.callbacks`` hook: charge a collection to the innermost open span
    of the active collector, in the thread that collected (collections do
    not overlap); nothing when no collector is active or no span is open."""
    global _collecting
    if phase == "start":
        collector = _ACTIVE.get()
        stack = (
            getattr(collector._local, "stack", None)
            if collector is not None and collector.enabled
            else None
        )
        _collecting = (stack[-1], time.perf_counter()) if stack else None
    elif _collecting is not None:
        charged, started = _collecting
        _collecting = None
        charged.count("gc_ms", 1000.0 * (time.perf_counter() - started))
        charged.count("gc_collections")


gc.callbacks.append(_charge_collection)


def span(name: str, **attrs: AttrValue) -> Union[Span, _NoopSpan]:
    """Open a span on the active collector, or a no-op when tracing is off.

    This is the function instrumented code calls; it must stay cheap when
    disabled.
    """
    collector = _ACTIVE.get()
    if collector is None or not collector.enabled:
        return NOOP_SPAN
    return Span(collector, name, attrs or None)
