"""Physical-level fault scenarios.

These helpers trigger faults through the simulated deployment machinery
(the switch and its control channel) rather than by deleting rules directly,
so they also leave behind the device/controller fault logs the event
correlation engine consumes.  They are the building blocks of the paper's
§V-B unresponsive-switch use case.
"""

from __future__ import annotations

from ..controller.controller import Controller

__all__ = [
    "make_switch_unresponsive",
    "restore_switch",
]


def make_switch_unresponsive(controller: Controller, switch_uid: str) -> None:
    """Silently stop a switch from processing controller pushes (§V-B case 2).

    Both the switch-side state and the control channel are affected, matching
    the use case where packets to the switch are silently dropped; the switch
    logs a ``SWITCH_UNREACHABLE`` fault, and the controller will log its own
    when the next deployment push fails.
    """
    switch = controller.fabric.switch(switch_uid)
    switch.make_unresponsive()
    controller.channel.disconnect(switch_uid)


def restore_switch(controller: Controller, switch_uid: str) -> None:
    """Bring an unresponsive switch back (faults remain in the logs, cleared)."""
    switch = controller.fabric.switch(switch_uid)
    switch.restore()
    controller.channel.reconnect(switch_uid)
