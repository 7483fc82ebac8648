"""Simulated TCAM table.

The ternary content-addressable memory of a leaf switch stores the rendered
access-control rules.  The simulation models the two failure modes the
paper lists in §II-B, both of which happen at install time:

* **overflow** — installs beyond capacity are rejected;
* **eviction** — if the local eviction mechanism is enabled, the oldest
  rule is silently evicted to make room (which "even worsens the situation
  because the controller may be unaware of the rules deleted from TCAM").

The table is keyed by the rule's match key; priorities are implicit (all
compiled rules are non-overlapping exact matches plus the implicit deny).

:meth:`TcamTable.write` is the table's one mutator: it removes some keys
and installs some rules, and listeners hear of each write once, with how
many rules went in and how many were lost.
"""

from __future__ import annotations

import enum
from itertools import islice, repeat
from operator import is_
from typing import Callable, Collection, Dict, List, Mapping, Optional, Tuple

from ..exceptions import TcamError
from ..rules import MatchKey, RuleSequence, TcamRule

__all__ = ["InstallOutcome", "TcamTable", "TcamListener"]

#: Listener called once per write: ``listener(installed, lost)`` with the
#: number of rules written and the number lost — removed, evicted or
#: rejected at install time.  The online monitoring subsystem uses this
#: hook to turn a TCAM write into one ``TcamChanged`` event.
TcamListener = Callable[[int, int], None]


class InstallOutcome(str, enum.Enum):
    """What happened to one rule that found the table full."""

    REJECTED_FULL = "rejected-full"
    INSTALLED_WITH_EVICTION = "installed-with-eviction"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TcamTable:
    """A bounded rule store with optional eviction."""

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
        #: Whether that sequence holds ``_entries`` itself as its key index:
        #: the next :meth:`write` then first swaps in a private copy.
        self._lent = False
        self._listeners: List[TcamListener] = []
        #: Non-empty :meth:`write` calls so far.  Equal counts mean the
        #: table was not written to in between.
        self.writes = 0
        # Counters exposed for tests and the experiments.
        self.install_attempts = 0
        self.rejected_installs = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Listeners (used by the online monitoring instrumentation)
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: TcamListener) -> TcamListener:
        """Call ``listener`` after every write from now on."""
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: TcamListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Inspection
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

        The table is keyed by its rules' own match keys, so it lends the
        sequence its own dict as the key index (:meth:`RuleSequence.keyed`):
        building one costs the rule tuple and nothing else.  The dict is
        then never written again — the table's next write first takes a
        private copy — so a sequence keeps the keys, key set and rules it
        was handed out with.  The sequence last handed out is returned
        again for as long as the table holds the very same rule objects in
        the same order — compared on every call, so no write has to
        announce itself; rules are immutable and keyed by their own match
        key, so that is the same content.  A table nobody wrote to, or one
        rewritten with what it held, costs that one pass.
        """
        held, entries = self._snapshot, self._entries
        if (
            held is None
            or len(held) != len(entries)
            or not all(map(is_, held, entries.values()))
        ):
            held = self._snapshot = RuleSequence.keyed(entries)
            self._lent = True
        return held

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def remove_where(self, predicate: Callable[[TcamRule], bool]) -> List[TcamRule]:
        """Remove every installed rule satisfying ``predicate``; returns them,
        in table order.

        ``predicate`` is asked about each rule once, in table order, before
        anything is removed; the matches then go in one :meth:`write`.
        """
        doomed = [key for key, rule in self._entries.items() if predicate(rule)]
        return self.write(doomed, {})[0]

    def write(
        self, stale: Collection[MatchKey], fresh: Mapping[MatchKey, TcamRule]
    ) -> Tuple[List[TcamRule], List[Tuple[InstallOutcome, Optional[TcamRule]]]]:
        """Remove the rules keyed ``stale``, then install ``fresh`` in its
        order; returns the rules removed, in ``stale``'s order, and the
        outcome of every rule that found the table full — with the rule it
        evicted, if any.

        ``fresh`` holds keys the table does not hold once ``stale`` is
        gone.  The rules that fit go in with one dict update, appended in
        order.  Each rule past the capacity is rejected or, with eviction
        on, evicts the oldest rule held.  Every rule of ``fresh`` counts as
        an install attempt.  A call that names a key moves :attr:`writes`
        by one, and one that changed the table calls each listener once;
        nothing to write is no write at all.
        """
        if not stale and not fresh:
            return [], []
        self.writes += 1
        if self._lent:
            # A fresh dict: the one a handed-out sequence holds stays as it was.
            self._entries = dict(self._entries)
            self._lent = False
        entries = self._entries
        removed = list(filter(None, map(entries.pop, stale, repeat(None))))
        room = len(fresh)
        if self.capacity is not None:
            room = min(room, max(self.capacity - len(entries), 0))
        entries.update(fresh if room == len(fresh) else islice(fresh.items(), room))
        self.install_attempts += len(fresh)
        installed, lost = room, len(removed)
        overflowed: List[Tuple[InstallOutcome, Optional[TcamRule]]] = []
        for key, rule in islice(fresh.items(), room, None):
            lost += 1
            if self.evict_on_overflow:
                evicted = entries.pop(next(iter(entries)))
                entries[key] = rule
                installed += 1
                overflowed.append((InstallOutcome.INSTALLED_WITH_EVICTION, evicted))
            else:
                overflowed.append((InstallOutcome.REJECTED_FULL, None))
        if self.evict_on_overflow:
            self.evictions += len(overflowed)
        else:
            self.rejected_installs += len(overflowed)
        if installed or lost:
            for listener in list(self._listeners):
                listener(installed, lost)
        return removed, overflowed
