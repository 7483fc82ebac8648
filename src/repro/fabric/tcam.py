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

:meth:`TcamTable.rule_sequence` hands out T as a
:class:`~repro.rules.TcamSnapshot` that reads the table's own dict.  From
the first one on, the table keeps its net key change since the snapshot it
last handed out (an eviction is a removal, a rejected install adds
nothing), which the next one carries
(:meth:`~repro.rules.TcamSnapshot.change_since`): a checker holding the one
before folds it into that one's key difference instead of taking a new one.
A change that outgrows the table is dropped, the full difference then
costing no more.
"""

from __future__ import annotations

import enum
from itertools import compress, islice, repeat
from operator import is_
from typing import Callable, Collection, Dict, List, Mapping, Optional, Set, Tuple

from ..exceptions import TcamError
from ..rules import MatchKey, TcamRule, TcamSnapshot

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
        self._snapshot: Optional[TcamSnapshot] = None
        #: Whether that snapshot reads ``_entries`` itself and nothing was
        #: written since: the next :meth:`write` swaps in another dict.
        self._lent = False
        #: The net key change since ``_snapshot``: keys held now that it
        #: lacks, and keys it holds that are gone.  None before the first
        #: :meth:`rule_sequence` (nobody reads a change yet) and once a
        #: change outgrew the table.
        self._added: Optional[Set[MatchKey]] = None
        self._removed: Optional[Set[MatchKey]] = None
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

    def key_set(self) -> Set[MatchKey]:
        """The held match keys as a new set (the dict's stored hashes reused)."""
        return set(self._entries)

    def rule_sequence(self) -> TcamSnapshot:
        """What the table holds, as a :class:`~repro.rules.TcamSnapshot`
        lent this table's own dict, which no write reaches again (the next
        one swaps in a copy or a fresh dict): handing one out builds nothing.

        The snapshot last handed out is returned again while the table holds
        the very same rule objects in the same order (compared rule by rule
        after a write, unless the recorded change since is non-empty).  A new
        one carries that change (:meth:`TcamSnapshot.change_since`), unless
        it outgrew the table and was dropped.
        """
        held, entries = self._snapshot, self._entries
        if self._lent:
            return held
        added, removed = self._added, self._removed
        if (
            held is None
            or added
            or removed
            or len(held) != len(entries)
            or not all(map(is_, held, entries.values()))
        ):
            change = None if added is None else (held._token, added, removed)
            held = self._snapshot = TcamSnapshot(entries, change)
            self._lent = True
            added = None  # handed over with the snapshot
        if added is None:
            self._added, self._removed = set(), set()
        return held

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _record(self, gone: Set[MatchKey], put: Mapping[MatchKey, TcamRule]) -> None:
        """Move the net change by keys popped (``gone``, a set this call
        may reuse) and keys put: a key popped and put back is no change, a
        key moving back the way it came since the last snapshot leaves the
        record, and any other joins it."""
        if gone and put:
            gone.symmetric_difference_update(put)
            out = gone.difference(put)
            into = gone - out
        else:
            out, into = gone, set(put)
        added, removed = self._added, self._removed
        for keys, undone in ((out, added), (into, removed)):
            back = undone & keys
            if back:
                undone -= back
                keys -= back
        # ``out`` and ``into`` are this call's own: an empty side takes one.
        if removed:
            removed |= out
        else:
            self._removed = out
        if added:
            added |= into
        else:
            self._added = into

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

        While the table records its net key change (see
        :meth:`rule_sequence`), each key popped, installed or evicted moves
        it; a ``fresh`` key the table still held overwrites its rule and
        drops the record, as does a change larger than the table.
        """
        if not stale and not fresh:
            return [], []
        self.writes += 1
        entries = self._entries
        recording = self._added is not None
        if len(stale) == len(entries) and stale == list(entries):
            # Every held key in table order (a wipe, a restore): a fresh
            # dict goes in, and the old one is read, not emptied.
            removed = list(entries.values())
            gone = set(entries) if recording else set()
            entries = self._entries = {}
        else:
            if self._lent:
                # A copy: the dict a handed-out snapshot reads stays as it was.
                entries = self._entries = dict(entries)
            popped = list(map(entries.pop, stale, repeat(None)))
            removed = list(filter(None, popped))
            gone = set(compress(stale, popped)) if recording else set()
        self._lent = False
        room = len(fresh)
        if self.capacity is not None:
            room = min(room, max(self.capacity - len(entries), 0))
        put = fresh if room == len(fresh) else dict(islice(fresh.items(), room))
        expected = len(entries) + room
        if recording:
            self._record(gone, put)
        entries.update(put)
        self.install_attempts += len(fresh)
        installed, lost = room, len(removed)
        overflowed: List[Tuple[InstallOutcome, Optional[TcamRule]]] = []
        for key, rule in islice(fresh.items(), room, None):
            lost += 1
            if self.evict_on_overflow:
                oldest = next(iter(entries))
                evicted = entries.pop(oldest)
                entries[key] = rule
                if recording:
                    self._record({oldest}, {key: rule})
                installed += 1
                overflowed.append((InstallOutcome.INSTALLED_WITH_EVICTION, evicted))
            else:
                overflowed.append((InstallOutcome.REJECTED_FULL, None))
        if recording and (
            # A fresh key the table held, or a change larger than the table.
            len(entries) != expected
            or len(self._added) + len(self._removed) > len(entries)
        ):
            self._added = self._removed = None
        if self.evict_on_overflow:
            self.evictions += len(overflowed)
        else:
            self.rejected_installs += len(overflowed)
        if installed or lost:
            for listener in list(self._listeners):
                listener(installed, lost)
        return removed, overflowed
