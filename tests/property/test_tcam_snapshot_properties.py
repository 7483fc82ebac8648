"""What a TCAM hands out never changes: the table lends its dict to a
``TcamSnapshot`` and never writes that dict again.

``TcamTable.rule_sequence()`` builds nothing: the ``TcamSnapshot`` it hands
out reads the table's own dict for its length, rules, keys, key set and
selections.  That is exact only if no write ever reaches a dict a snapshot
holds: the table's next write swaps in a copy, or a fresh dict when it
names every held key.  A state machine writes one table through ``write``
every way a write can go — a new rule, a held key written again with new
provenance, an eviction on a full ``evict_on_overflow`` table, a removal,
``remove_where``, a wipe and a restore of what the table held earlier
(every key out, the held rules in, as ``restore_tcam`` does) — holds it to
the per-rule :class:`TcamModel` (rules, counters, listener calls), and after
every step takes ``rule_sequence()`` and a frozen copy of the table beside
it.  Every snapshot handed out earlier must still equal its frozen copy:
its rules by identity, ``keys()``, ``key_set()``, ``len`` — and the lent
dict must still map those keys to those rules.  And it must answer as
``RuleSequence.of(list(snapshot))``, a sequence that holds no dict, does:
the same ``len``, ``keys()``, ``key_set()``, ``select()`` of every wanted
set below and ``check_switch`` verdict against L.  A snapshot is first read
the step *after* it was handed out, so a write that reached its dict shows
in every view.
"""

from __future__ import annotations

from operator import is_

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fabric.tcam import InstallOutcome, TcamTable
from repro.rules import RuleSequence, TcamRule, TcamSnapshot
from repro.verify import EquivalenceChecker

from oracles import TcamModel

PORTS = range(10)
_picks = st.integers(min_value=0, max_value=10_000)


def _rule(port: int, tag: int = 0) -> TcamRule:
    return TcamRule(
        vrf_scope=101,
        src_epg=1 + port % 2,
        dst_epg=3,
        protocol="tcp",
        port=80 + port,
        contract_uid=f"contract:{tag}",
    )


#: The L every sequence is checked against: half of the ports, so a table
#: misses some of its rules and holds some extra ones.
LOGICAL = RuleSequence.of([_rule(port) for port in PORTS if port % 2])

#: What ``select`` is asked for: nothing, L's keys, every key the machine's
#: table can hold, and the even ports' keys, which L lacks.
WANTED = (
    frozenset(),
    LOGICAL.key_set(),
    frozenset(_rule(port).match_key() for port in PORTS),
    frozenset(_rule(port).match_key() for port in PORTS if port % 2 == 0),
)


class SnapshotMachine(RuleBasedStateMachine):
    """One table, every kind of write, every snapshot it ever handed out."""

    def __init__(self) -> None:
        super().__init__()
        self.tcam = TcamTable(evict_on_overflow=True)
        self.tcam.subscribe(lambda installed, lost: self.calls.append((installed, lost)))
        self.calls = []
        #: The same writes, one rule at a time: what the table must hold.
        self.model = TcamModel(None, True)
        self.checker = EquivalenceChecker()
        #: ``(snapshot, rules, keys, key set)`` per snapshot handed out,
        #: the last three copied off the table when it was.
        self.handed = []

    def _write(self, stale, fresh):
        expected = self.model.write(list(stale), dict(fresh))
        assert self.tcam.write(stale, fresh) == expected
        return expected

    # -- the writes ------------------------------------------------------ #
    @rule(port=st.sampled_from(PORTS), tag=_picks)
    def install(self, port, tag):
        """A new rule, or a held key written again with new provenance."""
        fresh = _rule(port, tag)
        self._write([fresh.match_key()], {fresh.match_key(): fresh})

    @rule(port=st.sampled_from(PORTS))
    def evict(self, port):
        key = _rule(port).match_key()
        if not len(self.tcam) or key in self.tcam:
            return
        self.tcam.capacity = self.model.capacity = len(self.tcam)
        try:
            [(outcome, evicted)] = self._write((), {key: _rule(port)})[1]
        finally:
            self.tcam.capacity = self.model.capacity = None
        assert outcome is InstallOutcome.INSTALLED_WITH_EVICTION and evicted is not None

    @rule(pick=_picks)
    def remove(self, pick):
        keys = self.tcam.match_keys()
        if keys:
            assert self._write([keys[pick % len(keys)]], {})[0]

    @rule(modulus=st.integers(2, 4), residue=st.integers(0, 3))
    def remove_where(self, modulus, residue):
        def doomed(held):
            return held.port % modulus == residue % modulus

        removed = self.model.write([k for k, held in self.model.entries.items() if doomed(held)], {})[0]
        assert self.tcam.remove_where(doomed) == removed

    @rule()
    def wipe(self):
        self._write(self.tcam.match_keys(), {})

    @rule(pick=_picks)
    def restore(self, pick):
        """What the table held earlier, written back as ``restore_tcam`` does."""
        if self.handed:
            rules = self.handed[pick % len(self.handed)][1]
            self._write(self.tcam.match_keys(), {held.match_key(): held for held in rules})

    # -- the check ----------------------------------------------------- #
    @invariant()
    def the_table_is_the_model(self):
        assert self.tcam.rules() == list(self.model.entries.values())
        assert self.calls == self.model.calls
        counters = self.tcam.install_attempts, self.tcam.rejected_installs, self.tcam.evictions
        assert counters == self.model.counters()

    @invariant()
    def every_snapshot_handed_out_is_unchanged(self):
        for snapshot, rules, keys, key_set in self.handed:
            assert isinstance(snapshot, TcamSnapshot)
            # The lent dict itself: a rule replaced in place shows here first.
            assert list(snapshot._entries.items()) == list(zip(keys, rules))
            assert len(snapshot) == len(rules) and all(map(is_, snapshot, rules))
            assert snapshot.keys() == keys
            assert snapshot.key_set() == key_set
            self._answers_as_a_sequence_of_its_rules(snapshot)
        snapshot = self.tcam.rule_sequence()
        if not self.handed or snapshot is not self.handed[-1][0]:
            rules, keys = tuple(self.tcam.rules()), tuple(self.tcam.match_keys())
            self.handed.append((snapshot, rules, keys, frozenset(keys)))

    def _answers_as_a_sequence_of_its_rules(self, snapshot):
        copied = RuleSequence.of(list(snapshot))
        assert len(snapshot) == len(copied)
        assert snapshot.keys() == copied.keys()
        assert snapshot.key_set() == copied.key_set()
        # Twice over the copy: its first select scans, its second reads the
        # position index it builds.
        for _ in range(2):
            for wanted in WANTED:
                picked, expected = snapshot.select(wanted), copied.select(wanted)
                assert len(picked) == len(expected) and all(map(is_, picked, expected))
        verdict = self.checker.check_switch("leaf", LOGICAL, snapshot)
        assert verdict == self.checker.check_switch("leaf", LOGICAL, copied)


SnapshotMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None, derandomize=True
)
TestTcamSnapshotsNeverChange = SnapshotMachine.TestCase
