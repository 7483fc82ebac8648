"""What a TCAM hands out never changes: the table lends its dict, and copies
it before the next write.

``TcamTable.rule_sequence()`` builds only the rule tuple; the sequence takes
the table's own dict as its key index (``RuleSequence.keyed``) and reads its
keys and key set off it when first asked.  That is exact only if no write
ever reaches a dict a sequence holds.  A state machine writes one table
through every write path — ``install``, an ``install`` over a present key
with new provenance, an eviction on a full ``evict_on_overflow`` table,
``remove``, ``remove_where``, ``clear`` and a restore of what the table held
earlier (``clear`` then the held rules, as ``restore_tcam`` does) — and after
every step takes ``rule_sequence()`` and a frozen copy of the table beside
it.  Every sequence handed out earlier must still equal its frozen copy:
its rules by identity, ``keys()``, ``key_set()``, ``len``, and the checker's
verdict on it must equal the verdict on ``RuleSequence.of(list(seq))``, a
sequence that holds no dict — and the lent dict must still map those keys
to those rules.  A sequence is first read the step *after* it was handed
out, so a write that reached its dict shows in every view.
"""

from __future__ import annotations

import dataclasses
from operator import is_

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fabric.tcam import InstallOutcome, TcamTable
from repro.rules import RuleSequence, TcamRule
from repro.verify import EquivalenceChecker

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


class SnapshotMachine(RuleBasedStateMachine):
    """One table, every write path, every sequence it ever handed out."""

    def __init__(self) -> None:
        super().__init__()
        self.tcam = TcamTable(evict_on_overflow=True)
        self.checker = EquivalenceChecker()
        #: ``(sequence, rules, keys, key set)`` per sequence handed out,
        #: the last three copied off the table when it was.
        self.handed = []

    # -- the write paths ------------------------------------------------ #
    @rule(port=st.sampled_from(PORTS), tag=_picks)
    def install(self, port, tag):
        self.tcam.install(_rule(port, tag))

    @rule(pick=_picks, tag=_picks)
    def refresh_provenance(self, pick, tag):
        rules = self.tcam.rules()
        if rules:
            held = rules[pick % len(rules)]
            edited = dataclasses.replace(held, contract_uid=f"contract:refresh-{tag}")
            assert self.tcam.install(edited)[0] is InstallOutcome.ALREADY_PRESENT

    @rule(port=st.sampled_from(PORTS))
    def evict(self, port):
        tcam = self.tcam
        if not len(tcam) or _rule(port).match_key() in tcam:
            return
        tcam.capacity = len(tcam)
        try:
            outcome, evicted = tcam.install(_rule(port))
        finally:
            tcam.capacity = None
        assert outcome is InstallOutcome.INSTALLED_WITH_EVICTION and evicted is not None

    @rule(pick=_picks)
    def remove(self, pick):
        keys = self.tcam.match_keys()
        if keys:
            assert self.tcam.remove(keys[pick % len(keys)]) is not None

    @rule(modulus=st.integers(2, 4), residue=st.integers(0, 3))
    def remove_where(self, modulus, residue):
        self.tcam.remove_where(lambda held: held.port % modulus == residue % modulus)

    @rule()
    def clear(self):
        self.tcam.clear()

    @rule(pick=_picks)
    def restore(self, pick):
        if self.handed:
            rules = self.handed[pick % len(self.handed)][1]
            self.tcam.clear()
            for held in rules:
                self.tcam.install(held)

    # -- the check ----------------------------------------------------- #
    @invariant()
    def every_sequence_handed_out_is_unchanged(self):
        for sequence, rules, keys, key_set in self.handed:
            # The lent dict itself, while the sequence holds it: no view reads
            # a rule from it, so a provenance refresh would show only here.
            if sequence._index is not None:
                assert list(sequence._index.items()) == list(zip(keys, rules))
            assert len(sequence) == len(rules) and all(map(is_, sequence, rules))
            verdict = self.checker.check_switch("leaf", LOGICAL, sequence)
            copied = RuleSequence.of(list(sequence))
            assert verdict == self.checker.check_switch("leaf", LOGICAL, copied)
            assert sequence.keys() == keys
            assert sequence.key_set() == key_set
        sequence = self.tcam.rule_sequence()
        if not self.handed or sequence is not self.handed[-1][0]:
            rules, keys = tuple(self.tcam.rules()), tuple(self.tcam.match_keys())
            self.handed.append((sequence, rules, keys, frozenset(keys)))


SnapshotMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None, derandomize=True
)
TestTcamSnapshotsNeverChange = SnapshotMachine.TestCase
