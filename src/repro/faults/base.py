"""Common types for fault injection.

The evaluation (§VI-A) injects two kinds of *object faults*, both of which
"resemble the rule misses due to physical-level failures discussed in §II-B":

* **full object fault** — every TCAM rule associated with the object is
  missing;
* **partial object fault** — only some of the rules associated with the
  object are missing (the case that defeats the SCORE baseline).

Physical-level faults (an unresponsive switch) are modelled separately in
:mod:`repro.faults.physical`; they *cause* rule misses through the simulated
deployment machinery rather than by deleting rules directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from ..rules import TcamRule

__all__ = ["FaultKind", "InjectedFault"]


class FaultKind(str, enum.Enum):
    """Kinds of injected object faults."""

    FULL = "full"
    PARTIAL = "partial"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class InjectedFault:
    """Record of one injected object fault (the ground truth of an experiment)."""

    object_uid: str
    kind: FaultKind
    #: Switches from which rules were removed, with the removed rules.
    removed_rules: Dict[str, List[TcamRule]] = field(default_factory=dict)
    #: Logical time at which the fault was injected.
    injected_at: int = 0

    @property
    def switches(self) -> List[str]:
        return sorted(self.removed_rules)

    def total_removed(self) -> int:
        return sum(len(rules) for rules in self.removed_rules.values())

    def describe(self) -> str:
        return (
            f"{self.kind.value} fault on {self.object_uid}: "
            f"{self.total_removed()} rule(s) removed from {len(self.removed_rules)} switch(es)"
        )
