"""Wiring between the batch substrate and the event bus.

The controller and the fabric already expose listener hooks on the three
stores the paper's logs live in — the change log, the device/controller
fault logs and the per-switch TCAM tables.  :func:`instrument` subscribes to
all of them for one controller/fabric pair and republishes every state
transition as a typed event:

================================  =================================
source hook                       event published
================================  =================================
``ChangeLog.subscribe``           :class:`PolicyChanged`
``FaultLogBook.subscribe``        :class:`DeviceFault`
``TcamTable.subscribe``           :class:`TcamChanged`
================================  =================================

Each hook fires once per thing that happened — a TCAM write is
a whole ``sync_tcam`` or wipe — so the bus never carries an event per rule.

The returned :class:`Instrumentation` detaches every listener again, so a
monitor can be stopped without leaving dangling callbacks on the fabric.
"""

from __future__ import annotations

from typing import Callable, List

from ..controller.changelog import ChangeRecord
from ..controller.controller import Controller
from ..fabric.faultlog import FaultRecord
from .bus import EventBus
from .events import DeviceFault, PolicyChanged, TcamChanged

__all__ = ["Instrumentation", "instrument"]


class Instrumentation:
    """Handle over one controller/fabric instrumentation; detachable."""

    def __init__(self) -> None:
        self._detachers: List[Callable[[], None]] = []

    def add(self, detacher: Callable[[], None]) -> None:
        self._detachers.append(detacher)

    def detach(self) -> None:
        """Remove every listener this instrumentation installed."""
        for detacher in reversed(self._detachers):
            detacher()
        self._detachers.clear()

    def __len__(self) -> int:
        return len(self._detachers)


def instrument(controller: Controller, bus: EventBus) -> Instrumentation:
    """Republish every controller/fabric state transition onto ``bus``."""
    inst = Instrumentation()
    clock = controller.clock

    def on_change(record: ChangeRecord) -> None:
        bus.publish(
            PolicyChanged(
                timestamp=record.timestamp,
                object_uid=record.object_uid,
                object_type=record.object_type,
                operation=record.operation,
                detail=record.detail,
            )
        )

    controller.change_log.subscribe(on_change)
    inst.add(lambda: controller.change_log.unsubscribe(on_change))

    def on_fault(record: FaultRecord) -> None:
        bus.publish(
            DeviceFault(
                timestamp=record.raised_at,
                device_uid=record.device_uid,
                code=record.code,
                detail=record.detail,
            )
        )

    controller.fault_log.subscribe(on_fault)
    inst.add(lambda: controller.fault_log.unsubscribe(on_fault))

    for switch_uid in sorted(controller.fabric.switches):
        switch = controller.fabric.switches[switch_uid]

        def on_tcam(installed: int, lost: int, _switch_uid: str = switch_uid) -> None:
            bus.publish(TcamChanged(clock.peek(), _switch_uid, installed, lost))

        switch.tcam.subscribe(on_tcam)
        inst.add(lambda s=switch, h=on_tcam: s.tcam.unsubscribe(h))
        switch.fault_log.subscribe(on_fault)
        inst.add(lambda s=switch: s.fault_log.unsubscribe(on_fault))

    return inst
