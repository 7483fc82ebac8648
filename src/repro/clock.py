"""A deterministic logical clock shared by the simulated control plane.

The paper's event correlation engine (§V-A) reasons about the *ordering* of
policy change logs and device fault logs ("faults logged before the policy
changes and kept alive").  Real deployments use wall-clock timestamps; the
simulation uses a monotonically increasing logical clock so experiments are
fully deterministic and reproducible.

Every component that emits log records (controller change log, switch fault
log, fault injector) shares a single :class:`LogicalClock` instance owned by
the :class:`~repro.fabric.fabric.Fabric`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LogicalClock:
    """Monotonically increasing logical time source.

    The clock advances by one tick per :meth:`tick` call and can also be
    advanced by arbitrary positive amounts to simulate the passage of time
    between management operations (e.g. a policy change made "long after"
    a switch went down).
    """

    now: int = 0

    def tick(self, amount: int = 1) -> int:
        """Advance the clock by ``amount`` ticks and return the new time."""
        if amount <= 0:
            raise ValueError(f"clock can only move forward, got amount={amount}")
        self.now += amount
        return self.now

    def peek(self) -> int:
        """Return the current time without advancing the clock."""
        return self.now

    def __int__(self) -> int:  # pragma: no cover - trivial
        return self.now
