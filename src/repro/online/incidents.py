"""Incident store: the monitor's durable output.

Where a batch :class:`~repro.core.system.ScoutReport` is a one-shot answer,
the monitor tracks *incidents* — one per switch with an open L-T violation —
through the ``open → updated → resolved`` lifecycle.  An incident remembers
when it was opened, how often the violation changed while it was open, the
current SCOUT suspect set, and the device-fault codes seen while it was
active, which is the record an operator (or a paging pipeline) consumes.

Incidents serialize to plain dicts.  The store persists one way: inside the
monitor snapshot (:meth:`IncidentStore.snapshot` / :meth:`IncidentStore.restore`),
which is how a long-running monitor hands its history to a later process;
:meth:`IncidentStore.to_jsonl` prints the journal, one incident per line.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["IncidentStatus", "Incident", "IncidentStore"]


class IncidentStatus(str, enum.Enum):
    OPEN = "open"
    RESOLVED = "resolved"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Incident:
    """One tracked violation on one switch."""

    incident_id: str
    switch_uid: str
    opened_at: int
    updated_at: int
    status: IncidentStatus = IncidentStatus.OPEN
    resolved_at: Optional[int] = None
    missing_rules: int = 0
    extra_rules: int = 0
    #: Stringified SCOUT hypothesis objects, sorted.
    suspects: List[str] = field(default_factory=list)
    #: Fault codes observed on the switch while the incident was active.
    fault_codes: List[str] = field(default_factory=list)
    #: How many times the violation changed after the incident opened.
    updates: int = 0
    #: Correlation id of the poll/request that opened the incident — the
    #: thread that ties it to spans, log lines and the flight record.
    corr_id: Optional[str] = None

    @property
    def is_open(self) -> bool:
        return self.status is IncidentStatus.OPEN

    def describe(self) -> str:
        state = (
            f"open since t={self.opened_at}"
            if self.is_open
            else f"resolved t={self.opened_at}..{self.resolved_at}"
        )
        suspects = ", ".join(self.suspects) if self.suspects else "-"
        return (
            f"[{self.incident_id}] {self.switch_uid} {state}: "
            f"{self.missing_rules} missing rule(s), suspects: {suspects}"
        )

    def to_dict(self) -> Dict:
        return {
            "incident_id": self.incident_id,
            "switch_uid": self.switch_uid,
            "opened_at": self.opened_at,
            "updated_at": self.updated_at,
            "status": self.status.value,
            "resolved_at": self.resolved_at,
            "missing_rules": self.missing_rules,
            "extra_rules": self.extra_rules,
            "suspects": list(self.suspects),
            "fault_codes": list(self.fault_codes),
            "updates": self.updates,
            "corr_id": self.corr_id,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Incident":
        for key in ("incident_id", "switch_uid"):
            if not isinstance(data.get(key, ""), str):
                raise ValueError(f"{key} must be a string, got {data[key]!r}")
        status_value = data.get("status", "open")
        try:
            status = IncidentStatus(status_value)
        except ValueError:
            known = ", ".join(member.value for member in IncidentStatus)
            raise ValueError(
                f"unknown incident status {status_value!r} (expected one of: {known})"
            ) from None
        # Timestamps compare against the logical clock all over the monitor,
        # so a snapshot that smuggles in a string (or a float, or a bool)
        # must fail at restore time, naming the field as the status check
        # does — not later, deep inside a lifecycle comparison.
        for key in ("opened_at", "updated_at"):
            value = data.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        resolved_at = data.get("resolved_at")
        if resolved_at is not None and (
            not isinstance(resolved_at, int) or isinstance(resolved_at, bool)
        ):
            raise ValueError(f"resolved_at must be an integer or null, got {resolved_at!r}")
        return cls(
            incident_id=data["incident_id"],
            switch_uid=data["switch_uid"],
            opened_at=data["opened_at"],
            updated_at=data["updated_at"],
            status=status,
            resolved_at=resolved_at,
            missing_rules=data.get("missing_rules", 0),
            extra_rules=data.get("extra_rules", 0),
            suspects=list(data.get("suspects", ())),
            fault_codes=list(data.get("fault_codes", ())),
            updates=data.get("updates", 0),
            corr_id=data.get("corr_id"),
        )


class IncidentStore:
    """All incidents a monitor produced, with at most one open per switch."""

    def __init__(self) -> None:
        self._incidents: Dict[str, Incident] = {}
        self._active_by_switch: Dict[str, str] = {}
        self._counter = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def open(
        self,
        switch_uid: str,
        time: int,
        missing_rules: int = 0,
        extra_rules: int = 0,
        suspects: Optional[List[str]] = None,
        corr_id: Optional[str] = None,
    ) -> Incident:
        """Open a new incident for ``switch_uid`` (which must have none open)."""
        if switch_uid in self._active_by_switch:
            raise ValueError(f"switch {switch_uid!r} already has an open incident")
        self._counter += 1
        incident = Incident(
            incident_id=f"INC-{self._counter:04d}",
            switch_uid=switch_uid,
            opened_at=time,
            updated_at=time,
            missing_rules=missing_rules,
            extra_rules=extra_rules,
            suspects=sorted(suspects or ()),
            corr_id=corr_id,
        )
        self._incidents[incident.incident_id] = incident
        self._active_by_switch[switch_uid] = incident.incident_id
        return incident

    def update(
        self,
        switch_uid: str,
        time: int,
        missing_rules: int = 0,
        extra_rules: int = 0,
        suspects: Optional[List[str]] = None,
    ) -> Incident:
        """Refresh the open incident of ``switch_uid`` with new evidence."""
        incident = self.active_for(switch_uid)
        if incident is None:
            raise ValueError(f"switch {switch_uid!r} has no open incident to update")
        incident.updated_at = time
        incident.missing_rules = missing_rules
        incident.extra_rules = extra_rules
        incident.suspects = sorted(suspects or ())
        incident.updates += 1
        return incident

    def resolve(self, switch_uid: str, time: int) -> Optional[Incident]:
        """Close the open incident of ``switch_uid`` (no-op when none is open)."""
        incident_id = self._active_by_switch.pop(switch_uid, None)
        if incident_id is None:
            return None
        incident = self._incidents[incident_id]
        incident.status = IncidentStatus.RESOLVED
        incident.resolved_at = time
        incident.updated_at = time
        return incident

    def resolve_incident(self, incident_id: str, time: int) -> Optional[Incident]:
        """Close one incident *by id* (no-op when unknown or already closed).

        Unlike :meth:`resolve`, this targets exactly the addressed incident —
        the right primitive for an operator ack over the API, and safe even
        on journals that violated the one-open-per-switch invariant.
        """
        incident = self._incidents.get(incident_id)
        if incident is None or not incident.is_open:
            return None
        if self._active_by_switch.get(incident.switch_uid) == incident_id:
            del self._active_by_switch[incident.switch_uid]
        incident.status = IncidentStatus.RESOLVED
        incident.resolved_at = time
        incident.updated_at = time
        return incident

    def note_fault(
        self, switch_uid: str, code: str, incident: Optional[Incident] = None
    ) -> None:
        """Attach a device fault code to the switch's open incident.

        Passing ``incident`` targets a specific incident — the one that was
        *active during the batch* — so a fault observed in the same pass
        that resolved the incident still lands on it instead of vanishing.
        """
        if incident is None:
            incident = self.active_for(switch_uid)
        if incident is not None and code not in incident.fault_codes:
            incident.fault_codes.append(code)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def active_for(self, switch_uid: str) -> Optional[Incident]:
        incident_id = self._active_by_switch.get(switch_uid)
        return self._incidents.get(incident_id) if incident_id is not None else None

    def active(self) -> List[Incident]:
        return [incident for incident in self._incidents.values() if incident.is_open]

    def resolved(self) -> List[Incident]:
        return [incident for incident in self._incidents.values() if not incident.is_open]

    def all(self) -> List[Incident]:
        return list(self._incidents.values())

    def get(self, incident_id: str) -> Optional[Incident]:
        return self._incidents.get(incident_id)

    def __len__(self) -> int:
        return len(self._incidents)

    # ------------------------------------------------------------------ #
    # Snapshot / restore (monitor restart support)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict:
        """JSON-ready state: incidents in journal order plus the id counter."""
        return {
            "incidents": [incident.to_dict() for incident in self._incidents.values()],
            "counter": self._counter,
        }

    def restore(self, state: Dict) -> None:
        """Replace this store's contents in place from :meth:`snapshot`.

        In place matters: the service (and anything else holding a reference
        to the store) keeps seeing the restored incidents without re-wiring.
        The payload is validated in full before anything is replaced.
        """
        incidents = [Incident.from_dict(data) for data in state.get("incidents", ())]
        counter = state.get("counter", 0)
        if not isinstance(counter, int) or isinstance(counter, bool):
            raise ValueError(f"counter must be an integer, got {counter!r}")
        self._incidents.clear()
        self._active_by_switch.clear()
        for incident in incidents:
            self._incidents[incident.incident_id] = incident
            if incident.is_open:
                self._active_by_switch[incident.switch_uid] = incident.incident_id
        self._counter = counter

    # ------------------------------------------------------------------ #
    # Journal text
    # ------------------------------------------------------------------ #
    def to_jsonl(self) -> str:
        """All incidents, one JSON object per line (oldest first)."""
        return "\n".join(json.dumps(incident.to_dict()) for incident in self._incidents.values())
