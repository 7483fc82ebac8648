"""Typed events flowing through the online monitoring subsystem.

The batch pipeline answers "is the deployed state consistent *right now*?"
by sweeping the whole network.  The online pipeline instead reacts to the
individual state transitions a live controller and fabric produce:

* :class:`PolicyChanged` — a management action hit the controller change
  log (object added / modified / deleted);
* :class:`TcamChanged` — one write to one switch's TCAM ended
  (an agent's reconcile, a wipe, an eviction, a bit error): which switch,
  how many rules went in, how many were lost;
* :class:`DeviceFault` — a device fault log raised a new record (agent
  crash, unresponsive switch, TCAM overflow, ...).

Events are frozen dataclasses stamped with the shared logical clock, so an
event trace is fully deterministic and replayable.  They carry what the
incremental checker reads to compute a blast radius — the object, switch or
device touched — and nothing per rule: the monitor observes the fabric per
switch, so a TCAM event names the switch and sizes the change.

Every event also round-trips through a kind-tagged dict
(:meth:`Event.to_dict` / :func:`event_from_dict`), so a monitor snapshot can
carry its pending batch across a process boundary without losing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..fabric.faultlog import FaultCode
from ..policy.objects import ObjectType
from ..protocol import Operation

__all__ = [
    "Event",
    "PolicyChanged",
    "TcamChanged",
    "DeviceFault",
    "event_from_dict",
]


@dataclass(frozen=True)
class Event:
    """Base class: every event carries the logical time it occurred at."""

    timestamp: int

    def describe(self) -> str:
        return f"t={self.timestamp} {type(self).__name__}"

    def to_dict(self) -> Dict:
        """Kind-tagged JSON-ready form; see :func:`event_from_dict`."""
        raise NotImplementedError(f"{type(self).__name__} is not serializable")


@dataclass(frozen=True)
class PolicyChanged(Event):
    """A management action was applied to one policy object."""

    object_uid: str
    object_type: ObjectType
    operation: Operation
    detail: str = ""

    def describe(self) -> str:
        return f"t={self.timestamp} policy-changed {self.operation.value} {self.object_uid}"

    def to_dict(self) -> Dict:
        return {
            "kind": "policy-changed",
            "timestamp": self.timestamp,
            "object_uid": self.object_uid,
            "object_type": self.object_type.value,
            "operation": self.operation.value,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TcamChanged(Event):
    """One write to one switch's TCAM: ``installed`` rules went
    in, ``lost`` left it (removed or evicted) or bounced off it."""

    switch_uid: str
    installed: int
    lost: int

    def describe(self) -> str:
        return f"t={self.timestamp} tcam-changed {self.switch_uid} +{self.installed} -{self.lost}"

    def to_dict(self) -> Dict:
        return {
            "kind": "tcam-changed",
            "timestamp": self.timestamp,
            "switch_uid": self.switch_uid,
            "installed": self.installed,
            "lost": self.lost,
        }


@dataclass(frozen=True)
class DeviceFault(Event):
    """A device (or the controller, about a device) raised a fault record."""

    device_uid: str
    code: FaultCode
    detail: str = ""

    def describe(self) -> str:
        return f"t={self.timestamp} device-fault {self.device_uid} {self.code.value}"

    def to_dict(self) -> Dict:
        return {
            "kind": "device-fault",
            "timestamp": self.timestamp,
            "device_uid": self.device_uid,
            "code": self.code.value,
            "detail": self.detail,
        }


def event_from_dict(data: Dict) -> Event:
    """Rebuild one event from its :meth:`Event.to_dict` form.

    Raises :class:`ValueError` on an unknown kind tag or a malformed enum
    value — a snapshot carrying events a newer (or corrupted) writer
    produced should fail loudly at restore time, not at poll time.
    """
    kind = data.get("kind")
    if kind == "policy-changed":
        return PolicyChanged(
            timestamp=data["timestamp"],
            object_uid=data["object_uid"],
            object_type=ObjectType(data["object_type"]),
            operation=Operation(data["operation"]),
            detail=data.get("detail", ""),
        )
    if kind == "tcam-changed":
        installed, lost = data.get("installed", 0), data.get("lost", 0)
        if type(installed) is not int or type(lost) is not int:
            raise ValueError(f"tcam-changed counts must be integers, got {data!r}")
        return TcamChanged(data["timestamp"], data["switch_uid"], installed, lost)
    per_rule = {"rule-installed": (1, 0), "rule-lost": (0, 1)}.get(kind)
    if per_rule is not None:
        # Snapshot versions 1-3 carried one entry, rule body included, per
        # rule written: each reads as a write of that one rule.
        return TcamChanged(data["timestamp"], data["switch_uid"], *per_rule)
    if kind == "device-fault":
        return DeviceFault(
            timestamp=data["timestamp"],
            device_uid=data["device_uid"],
            code=FaultCode(data["code"]),
            detail=data.get("detail", ""),
        )
    raise ValueError(f"unknown event kind {kind!r}")
