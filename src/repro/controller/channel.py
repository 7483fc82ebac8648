"""Control channel between the controller and the switch agents.

The paper is agnostic to the linking technology (OpFlex, OpenFlow, ...); what
matters for fault localization is that the channel can fail: a switch can be
temporarily unreachable, or individual instructions can be lost during a
push (§II-B "a temporal disconnection between the controller and switch agent
during the instruction push").

The channel models exactly those two failure modes:

* **disconnection** — a switch marked disconnected receives nothing, and the
  controller observes the failure (it is the component that logs
  ``SWITCH_UNREACHABLE`` faults, matching the paper's unresponsive-switch use
  case where both the change log and the fault log live at the controller);
* **lossy delivery** — each instruction is independently dropped with
  probability ``drop_probability`` (0 unless a caller sets it), producing
  partial logical views.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..fabric.fabric import Fabric
from ..fabric.switch import AgentState
from ..protocol import AttachEndpoint, DeliveryReport, DeliveryStatus, Instruction

__all__ = ["ControlChannel"]


class ControlChannel:
    """Delivers instruction batches from the controller to leaf switches."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        #: Chance that each instruction of a push is lost in transit, drawn
        #: from :attr:`rng`.
        self.drop_probability = 0.0
        self.rng = random.Random(0)
        self._disconnected: set[str] = set()

    # ------------------------------------------------------------------ #
    # Connectivity management
    # ------------------------------------------------------------------ #
    def disconnect(self, switch_uid: str) -> None:
        """Cut the control channel to ``switch_uid``."""
        self._disconnected.add(switch_uid)

    def reconnect(self, switch_uid: str) -> None:
        self._disconnected.discard(switch_uid)

    def is_connected(self, switch_uid: str) -> bool:
        return switch_uid not in self._disconnected

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #
    def deliver(
        self,
        switch_uid: str,
        instructions: Sequence[Instruction],
        attachments: Sequence[AttachEndpoint] = (),
    ) -> DeliveryReport:
        """Push one batch to one switch and report the outcome."""
        switch = self.fabric.switch(switch_uid)

        if not self.is_connected(switch_uid) or switch.agent.state is AgentState.UNRESPONSIVE:
            return DeliveryReport(
                switch_uid=switch_uid,
                status=DeliveryStatus.UNREACHABLE,
                delivered=0,
                dropped=len(instructions),
                detail="switch unreachable over the control channel",
            )

        if self.drop_probability > 0.0:
            surviving = [
                instruction
                for instruction in instructions
                if self.rng.random() >= self.drop_probability
            ]
        else:
            surviving = list(instructions)
        lost_in_transit = len(instructions) - len(surviving)

        applied, dropped_by_agent = switch.receive_deployment(surviving, attachments)
        dropped = lost_in_transit + dropped_by_agent
        if dropped == 0:
            status = DeliveryStatus.DELIVERED
        elif applied == 0:
            status = DeliveryStatus.UNREACHABLE
        else:
            status = DeliveryStatus.PARTIAL
        detail = None
        if lost_in_transit:
            detail = f"{lost_in_transit} instruction(s) lost in transit"
        return DeliveryReport(
            switch_uid=switch_uid,
            status=status,
            delivered=applied,
            dropped=dropped,
            detail=detail,
        )
