"""A synchronous, deterministic event bus.

The bus is deliberately minimal: publishing dispatches to subscribers in
subscription order on the caller's stack, so a simulation step that emits
events completes with every consumer fully up to date and no hidden
concurrency.  (The future async/sharded monitor can swap this for a queue
without touching producers — they only know :meth:`EventBus.publish`.)

Besides dispatch the bus keeps per-type counters, which the monitor's stats
and the benchmarks read to show how much it reacted to.  (The ring of recent
events operators read is the service's flight recorder, a subscriber.)
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List

from .events import Event

__all__ = ["EventBus"]

Handler = Callable[[Event], None]


class EventBus:
    """Publish/subscribe hub for :class:`~repro.online.events.Event`."""

    def __init__(self) -> None:
        self._subscribers: List[Handler] = []
        self.counts: Dict[str, int] = Counter()

    # ------------------------------------------------------------------ #
    # Subscription
    # ------------------------------------------------------------------ #
    def subscribe(self, handler: Handler) -> Handler:
        """Deliver every event published from now on to ``handler``."""
        self._subscribers.append(handler)
        return handler

    def unsubscribe(self, handler: Handler) -> None:
        # Equality, not identity: every attribute access on an instance
        # creates a fresh bound-method object, so ``monitor.stop()`` passing
        # ``self._on_event`` must match by ``==`` (same function + instance).
        self._subscribers = [
            existing for existing in self._subscribers if existing != handler
        ]

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(self, event: Event) -> int:
        """Dispatch ``event``; returns the number of handlers invoked."""
        self.counts[type(event).__name__] += 1
        subscribers = list(self._subscribers)
        for handler in subscribers:
            handler(event)
        return len(subscribers)

    def total_events(self) -> int:
        return sum(self.counts.values())
