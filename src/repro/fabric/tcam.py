"""Simulated TCAM table.

The ternary content-addressable memory of a leaf switch stores the rendered
access-control rules.  The simulation models the failure modes the paper
lists in §II-B:

* **finite capacity** — installs beyond capacity are rejected (TCAM
  overflow), or, if the local eviction mechanism is enabled, an old rule is
  silently evicted to make room (which "even worsens the situation because
  the controller may be unaware of the rules deleted from TCAM");
* **partial updates** — callers (the switch agent) may stop applying a rule
  diff mid-way, leaving the table in a mixed state.

The table is keyed by the rule's match key; priorities are implicit (all
compiled rules are non-overlapping exact matches plus the implicit deny).

Listeners hear about writes per *transaction*, not per rule: one call with
how many rules went in and how many were lost once the outermost mutating
call — or :meth:`TcamTable.transaction` scope around several — returns.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from operator import is_
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..exceptions import TcamError
from ..rules import MatchKey, RuleSequence, TcamRule

__all__ = ["InstallOutcome", "TcamTable", "TcamListener"]

#: Listener called once per write transaction: ``listener(installed, lost)``
#: with the number of rules written and the number lost — removed, evicted
#: or rejected at install time.  The online monitoring subsystem
#: uses this hook to turn a TCAM transaction into one ``TcamChanged`` event.
TcamListener = Callable[[int, int], None]


class InstallOutcome(str, enum.Enum):
    """Result of attempting to install one rule."""

    INSTALLED = "installed"
    ALREADY_PRESENT = "already-present"
    REJECTED_FULL = "rejected-full"
    INSTALLED_WITH_EVICTION = "installed-with-eviction"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TcamTable:
    """A bounded rule store with optional eviction and fault hooks."""

    def __init__(
        self,
        capacity: Optional[int] = None,
        evict_on_overflow: bool = False,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise TcamError(f"TCAM capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.evict_on_overflow = evict_on_overflow
        self._entries: Dict[MatchKey, TcamRule] = {}
        #: What :meth:`rule_sequence` last handed out.
        self._snapshot: Optional[RuleSequence] = None
        self._listeners: List[TcamListener] = []
        # The open transaction: nesting depth and the writes it made so far.
        self._open = self._installed = self._lost = 0
        # Counters exposed for tests and the experiments.
        self.install_attempts = 0
        self.rejected_installs = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Listeners (used by the online monitoring instrumentation)
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: TcamListener) -> TcamListener:
        """Call ``listener`` after every write transaction from now on."""
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: TcamListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Announce the writes made inside the ``with`` block as one change:
        listeners are called when the outermost scope exits, on an exception
        too — the writes made before it still happened."""
        self._open += 1
        try:
            yield
        finally:
            self._open -= 1
            if not self._open:
                self._flush()

    def _wrote(self, installed: int, lost: int) -> None:
        """Count one write; outside any transaction it is one of its own."""
        self._installed += installed
        self._lost += lost
        if not self._open:
            self._flush()

    def _flush(self) -> None:
        installed, lost = self._installed, self._lost
        self._installed = self._lost = 0
        if installed or lost:
            for listener in list(self._listeners):
                listener(installed, lost)

    # ------------------------------------------------------------------ #
    # Capacity and inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: MatchKey) -> bool:
        return key in self._entries

    def rules(self) -> List[TcamRule]:
        """Installed rules in installation order."""
        return list(self._entries.values())

    def match_keys(self) -> List[MatchKey]:
        return list(self._entries.keys())

    def rule_sequence(self) -> RuleSequence:
        """:meth:`rules` as an immutable sequence carrying :meth:`match_keys`.

        The table is keyed by match key, so the sequence's key set is read
        off it instead of being recomputed rule by rule.  The sequence last
        handed out is returned again for as long as the table holds the very
        same rule objects in the same order — compared on every call, so no
        write has to announce itself; rules are immutable and keyed by their
        own match key, so that is the same content.  A table nobody wrote
        to, or one rewritten with what it held, costs that one pass.
        """
        held, entries = self._snapshot, self._entries
        if (
            held is None
            or len(held) != len(entries)
            or not all(map(is_, held, entries.values()))
        ):
            held = self._snapshot = RuleSequence.keyed(entries)
        return held

    def is_full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def install(self, rule: TcamRule) -> Tuple[InstallOutcome, Optional[TcamRule]]:
        """Install ``rule``.

        Returns the outcome and, when an eviction occurred, the evicted rule
        so the switch can log it.
        """
        return self._insert(rule.match_key(), rule)

    def _insert(
        self, key: MatchKey, rule: TcamRule
    ) -> Tuple[InstallOutcome, Optional[TcamRule]]:
        """:meth:`install` for a caller that already holds ``rule``'s match
        key: the table stores that very tuple instead of deriving another."""
        self.install_attempts += 1
        if key in self._entries:
            # Refresh provenance but count as already present.
            self._entries[key] = rule
            return InstallOutcome.ALREADY_PRESENT, None
        if self.is_full():
            if not self.evict_on_overflow:
                self.rejected_installs += 1
                self._wrote(0, 1)
                return InstallOutcome.REJECTED_FULL, None
            evicted_key = next(iter(self._entries))
            evicted = self._entries.pop(evicted_key)
            self.evictions += 1
            self._entries[key] = rule
            self._wrote(1, 1)
            return InstallOutcome.INSTALLED_WITH_EVICTION, evicted
        self._entries[key] = rule
        self._wrote(1, 0)
        return InstallOutcome.INSTALLED, None

    def remove(self, key: MatchKey) -> Optional[TcamRule]:
        """Remove the rule with ``key``; returns it or ``None`` if absent."""
        rule = self._entries.pop(key, None)
        if rule is not None:
            self._wrote(0, 1)
        return rule

    def remove_rule(self, rule: TcamRule) -> Optional[TcamRule]:
        return self.remove(rule.match_key())

    def remove_where(self, predicate: Callable[[TcamRule], bool]) -> List[TcamRule]:
        """Remove every installed rule satisfying ``predicate``; returns them."""
        removed = [rule for rule in self._entries.values() if predicate(rule)]
        with self.transaction():
            for rule in removed:
                self.remove(rule.match_key())
        return removed

    def clear(self) -> None:
        lost = len(self._entries)
        self._entries.clear()
        self._wrote(0, lost)

    # ------------------------------------------------------------------ #
    # Hardware faults
    # ------------------------------------------------------------------ #
