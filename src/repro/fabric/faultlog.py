"""Device fault logs.

Switches (and the controller, for reachability events it observes) emit
structured fault records.  The event correlation engine (§V-A) consumes
these records together with the controller's policy change logs: it looks
for faults that were *raised before* a policy change and were still *active*
("keep alive") when the change was pushed, then matches them against known
fault signatures.

Real APIC/Nexus deployments expose these as the APIC fault/event subsystem
(paper reference [16]); the simulation reproduces the fields the correlation
engine needs: a timestamp, the affected device, a fault code and free-form
detail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

__all__ = ["FaultCode", "FaultRecord", "FaultLogBook"]


class FaultCode(str, enum.Enum):
    """Physical/system-level fault codes the simulated devices can raise."""

    TCAM_OVERFLOW = "tcam-overflow"
    TCAM_CORRUPTION = "tcam-corruption"
    RULE_EVICTION = "rule-eviction"
    SWITCH_UNREACHABLE = "switch-unreachable"
    AGENT_CRASH = "agent-crash"
    CHANNEL_DISRUPTION = "channel-disruption"
    MEMORY_PRESSURE = "memory-pressure"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class FaultRecord:
    """One fault raised by a device.

    ``raised_at`` is the logical time the fault appeared; ``cleared_at`` is
    ``None`` while the fault is still active.  The correlation engine treats
    a fault as *relevant* to a policy change made at time ``t`` when
    ``raised_at <= t`` and the fault was not yet cleared at ``t``.
    """

    raised_at: int
    device_uid: str
    code: FaultCode
    detail: str = ""
    cleared_at: Optional[int] = None

    def is_active_at(self, time: int) -> bool:
        """True if the fault had been raised and not yet cleared at ``time``."""
        if self.raised_at > time:
            return False
        return self.cleared_at is None or self.cleared_at > time

    def clear(self, time: int) -> None:
        """Mark the fault as cleared at ``time``."""
        self.cleared_at = time

    def describe(self) -> str:
        state = "active" if self.cleared_at is None else f"cleared@{self.cleared_at}"
        return f"t={self.raised_at} {self.device_uid} {self.code.value} ({state}) {self.detail}"


class FaultLogBook:
    """An append-only collection of :class:`FaultRecord` for one device or site."""

    def __init__(self) -> None:
        self._records: List[FaultRecord] = []
        self._listeners: List[Callable[[FaultRecord], None]] = []

    def raise_fault(
        self,
        time: int,
        device_uid: str,
        code: FaultCode,
        detail: str = "",
    ) -> FaultRecord:
        """Append a new active fault and return the record."""
        record = FaultRecord(raised_at=time, device_uid=device_uid, code=code, detail=detail)
        self._records.append(record)
        for listener in list(self._listeners):
            listener(record)
        return record

    def subscribe(
        self, listener: Callable[[FaultRecord], None]
    ) -> Callable[[FaultRecord], None]:
        """Call ``listener`` with every fault raised from now on.

        Merged books built with :meth:`extend` do not re-notify; only the
        book a fault is originally raised against does.
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Callable[[FaultRecord], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def extend(self, records: Iterable[FaultRecord]) -> None:
        self._records.extend(records)

    def records(self) -> List[FaultRecord]:
        """All records, in emission order."""
        return list(self._records)

    def clear_device(self, device_uid: str, time: int) -> int:
        """Clear every active fault on ``device_uid``; returns how many were cleared."""
        cleared = 0
        for record in self._records:
            if record.device_uid == device_uid and record.cleared_at is None:
                record.clear(time)
                cleared += 1
        return cleared

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)
