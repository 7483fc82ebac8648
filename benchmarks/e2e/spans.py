"""Benchmark-owned spans: recorded around calls into each layer, from outside.

The program has its own tracing layer (``repro.obs``); the benchmark does not
use it for attribution, so a later change to the program's spans cannot move
a per-layer number.  A span here is ``(name, start, end, parent, op)``, kept
in memory and written out only when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set

__all__ = ["ROOT", "SpanLog"]

#: Name of the span that wraps one whole traced operation.
ROOT = "op"


class SpanLog:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent index (-1 = none), op id]`` per span.
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """Record ``name`` around the body; a child inherits its parent's op id."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.records[parent][4] if parent >= 0 else -1
        record = [name, time.perf_counter(), 0.0, parent, op]
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus what its children cover."""
        own = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                own[parent] -= end - start
        by_name: Dict[str, List[float]] = {}
        for record, seconds in zip(self.records, own):
            by_name.setdefault(record[0], []).append(max(0.0, seconds))
        return by_name

    def op_layers(self) -> Set[str]:
        """Names of the spans recorded inside a traced operation."""
        inside: Set[str] = set()
        under_root = [False] * len(self.records)
        for index, (name, _, _, parent, _) in enumerate(self.records):
            if parent >= 0 and (under_root[parent] or self.records[parent][0] == ROOT):
                under_root[index] = True
                inside.add(name)
        return inside

    def coverage(self) -> float:
        """Share of the traced operations' wall that named layers account for."""
        wall = sum(end - start for name, start, end, _, _ in self.records if name == ROOT)
        if wall <= 0:
            return 0.0
        return 1.0 - sum(self.self_times().get(ROOT, ())) / wall

    def chrome_trace(self) -> Dict:
        """The spans as a Chrome ``trace_event`` document (chrome://tracing)."""
        if not self.records:
            return {"traceEvents": []}
        origin = self.records[0][1]
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {"op": op, "parent": parent},
                }
                for name, start, end, parent, op in self.records
            ]
        }
