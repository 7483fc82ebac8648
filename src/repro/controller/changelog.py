"""Controller-side policy change logs.

Every management action on the network policy (object added, modified,
deleted) is recorded with a logical timestamp.  Three consumers rely on the
log:

* the SCOUT algorithm's second stage (§IV-C, Algorithm 1 lines 20-25), which
  explains residual observations by selecting the failed objects to which
  "some actions are recently applied";
* the event correlation engine (§V-A), which uses the change timestamps to
  narrow the device fault logs down to faults that were active when the
  change was pushed;
* the online monitoring subsystem (:mod:`repro.online`), whose hot loop
  queries the log after every debounced event batch and therefore needs the
  lookups below to stay sub-linear in the log size.

The log keeps three views of the same records: the emission-order list (the
public :meth:`ChangeLog.records` / iteration view), a timestamp-sorted list
serving the ``since``/``within`` range queries by bisection, and a per-object
index serving ``for_object``/``latest_for_object`` in O(k)/O(1).  The logical
clock is monotone, so appends hit the O(1) fast path; explicitly back-dated
records pay an O(n) insert while every query stays O(log n + k).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..policy.objects import ObjectType
from ..protocol import Operation

__all__ = ["ChangeRecord", "ChangeLog"]


@dataclass(frozen=True)
class ChangeRecord:
    """One management-plane action applied to a policy object."""

    timestamp: int
    object_uid: str
    object_type: ObjectType
    operation: Operation
    detail: str = ""

    def describe(self) -> str:
        return f"t={self.timestamp} {self.operation.value} {self.object_uid} {self.detail}".rstrip()


def _timestamp(record: ChangeRecord) -> int:
    return record.timestamp


class ChangeLog:
    """Append-only, timestamp-indexed log of policy changes."""

    def __init__(self) -> None:
        self._records: List[ChangeRecord] = []
        self._by_time: List[ChangeRecord] = []
        self._by_object: Dict[str, List[ChangeRecord]] = {}
        self._latest: Dict[str, ChangeRecord] = {}
        self._listeners: List[Callable[[ChangeRecord], None]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(
        self,
        timestamp: int,
        object_uid: str,
        object_type: ObjectType,
        operation: Operation,
        detail: str = "",
    ) -> ChangeRecord:
        record = ChangeRecord(
            timestamp=timestamp,
            object_uid=object_uid,
            object_type=object_type,
            operation=operation,
            detail=detail,
        )
        self._insert(record)
        self._notify(record)
        return record

    def extend(self, records: Iterable[ChangeRecord]) -> None:
        for record in records:
            self._insert(record)
            self._notify(record)

    def _insert(self, record: ChangeRecord) -> None:
        self._records.append(record)
        if not self._by_time or self._by_time[-1].timestamp <= record.timestamp:
            self._by_time.append(record)
        else:
            index = bisect.bisect_right(self._by_time, record.timestamp, key=_timestamp)
            self._by_time.insert(index, record)
        bucket = self._by_object.setdefault(record.object_uid, [])
        if not bucket or bucket[-1].timestamp <= record.timestamp:
            bucket.append(record)
        else:
            index = bisect.bisect_right(bucket, record.timestamp, key=_timestamp)
            bucket.insert(index, record)
        latest = self._latest.get(record.object_uid)
        if latest is None or record.timestamp >= latest.timestamp:
            self._latest[record.object_uid] = record

    # ------------------------------------------------------------------ #
    # Listeners (used by the online monitoring instrumentation)
    # ------------------------------------------------------------------ #
    def subscribe(
        self, listener: Callable[[ChangeRecord], None]
    ) -> Callable[[ChangeRecord], None]:
        """Call ``listener`` with every record appended from now on."""
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Callable[[ChangeRecord], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, record: ChangeRecord) -> None:
        for listener in list(self._listeners):
            listener(record)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def records(self) -> List[ChangeRecord]:
        """All records, in emission order."""
        return list(self._records)

    def for_object(self, object_uid: str) -> List[ChangeRecord]:
        """Records for ``object_uid``, sorted by timestamp (ties in emission order)."""
        return list(self._by_object.get(object_uid, ()))

    def latest_for_object(self, object_uid: str) -> Optional[ChangeRecord]:
        return self._latest.get(object_uid)

    def within(self, start: int, end: int) -> List[ChangeRecord]:
        """Records with ``start <= timestamp <= end``, sorted by timestamp."""
        lo = bisect.bisect_left(self._by_time, start, key=_timestamp)
        hi = bisect.bisect_right(self._by_time, end, key=_timestamp)
        return self._by_time[lo:hi]

    def recently_changed_objects(self, now: int, window: int) -> Dict[str, ChangeRecord]:
        """Objects changed within ``window`` ticks before ``now``.

        Returns a map from object uid to the most recent change record for
        that object.  This is the query Algorithm 1's ``lookupChangeLog``
        performs.
        """
        latest: Dict[str, ChangeRecord] = {}
        for record in self.within(now - window, now):
            previous = latest.get(record.object_uid)
            if previous is None or record.timestamp >= previous.timestamp:
                latest[record.object_uid] = record
        return latest

    def last_timestamp(self) -> int:
        """Timestamp of the most recent record (0 when the log is empty)."""
        if not self._by_time:
            return 0
        return self._by_time[-1].timestamp

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)
