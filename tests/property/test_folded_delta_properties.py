"""A folded key delta is the key delta: one leaf's TCAM, every kind of write.

From its first ``rule_sequence()`` on, a ``TcamTable`` records its net key
change since the sequence it last handed out, and the next sequence carries
it.  A checker holding the proof of the sequence before folds that change
into the held ``L - T`` / ``T - L`` instead of probing every key of L
(``EquivalenceChecker.prove_switch``).  That is exact only if the record is
the net change: an add cancelling a remove of the same key and the other
way round, an eviction a removal, a rejected install nothing.

A state machine writes one leaf of the Figure 1 fabric every way a write
can go — removals and installs (a removed rule put back by a later write
too), an install into a full table that is rejected or evicts, a full
rewrite as ``restore_tcam`` does it, writes that change nothing — a few
writes per step, lets a second reader take sequences in between, and edits
the policy now and then, so L moves too.  After every step it proves the
leaf again from its last proof and holds the key delta, folded or not, to
``_key_delta`` from scratch and the verdict to a fresh ``check_switch``;
and it refreshes an ``IncrementalChecker`` over the fabric, whose report
must fingerprint as a fresh ``check_network`` does.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.experiments import restore_tcam, snapshot_tcam
from repro.online import IncrementalChecker
from repro.policy.objects import Filter, FilterEntry
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker
from repro.workloads import three_tier_scenario

pytestmark = pytest.mark.slow

LEAF = "leaf-2"
STEPS = (
    "remove",
    "install",
    "put_back",
    "take_and_put_back",
    "resync",
    "reject",
    "evict",
    "restore",
    "wipe",
    "empty_write",
    "second_reader",
)
_picks = st.integers(min_value=0, max_value=10_000)


def _foreign(pick: int) -> TcamRule:
    """A rule no policy of the scenario renders (or one it does, by chance)."""
    return TcamRule(
        vrf_scope=101,
        src_epg=1 + pick % 4,
        dst_epg=1 + pick // 4 % 4,
        protocol="tcp",
        port=(80, 700, 8080, 9000 + pick % 7)[pick % 4],
        contract_uid="contract:elsewhere",
    )


class FoldedDeltaMachine(RuleBasedStateMachine):
    """One leaf's TCAM written between two proofs of it."""

    @initialize()
    def start(self):
        self.scenario = three_tier_scenario()
        self.controller = self.scenario.controller
        self.tcam = self.controller.fabric.switch(LEAF).tcam
        self.snapshot = snapshot_tcam(self.controller.fabric)
        self.checker = EquivalenceChecker()
        self.proof = None
        #: Rules writes removed or evicted, for ``put_back``.
        self.taken = []
        self.delta = IncrementalChecker(self.controller)
        self.delta.bootstrap()

    # -- the writes --------------------------------------------------- #
    def remove(self, pick):
        keys = self.tcam.match_keys()
        if keys:
            self.taken.extend(self.tcam.write([keys[pick % len(keys)]], {})[0])

    def install(self, pick):
        rule = _foreign(pick)
        if rule.match_key() not in self.tcam:
            self.tcam.write((), {rule.match_key(): rule})

    def put_back(self, pick):
        """A rule some earlier write removed, installed again: its add
        cancels that remove if no sequence was handed out in between."""
        if self.taken:
            rule = self.taken.pop(pick % len(self.taken))
            if rule.match_key() not in self.tcam:
                self.tcam.write((), {rule.match_key(): rule})

    def take_and_put_back(self, pick):
        """A key removed and installed in one write: no net change."""
        rules = self.tcam.rules()
        if rules:
            taken = rules[pick % len(rules)]
            self.tcam.write([taken.match_key()], {taken.match_key(): taken})

    def resync(self, pick):
        """The agent's sync: what the render lacks goes, what it has goes in."""
        self.controller.fabric.switch(LEAF).sync_tcam()

    def overflow(self, pick, evict):
        """Installs into a table at capacity: each one rejected or evicting
        the oldest rule (possibly one this very write installed)."""
        if not len(self.tcam):
            return
        fresh = {}
        for rule in (_foreign(pick), _foreign(pick // 7), _foreign(pick // 49)):
            if rule.match_key() not in self.tcam:
                fresh[rule.match_key()] = rule
        self.tcam.capacity, self.tcam.evict_on_overflow = len(self.tcam), evict
        try:
            for _, evicted in self.tcam.write((), fresh)[1]:
                if evicted is not None:
                    self.taken.append(evicted)
        finally:
            self.tcam.capacity, self.tcam.evict_on_overflow = None, False

    def reject(self, pick):
        self.overflow(pick, evict=False)

    def evict(self, pick):
        self.overflow(pick, evict=True)

    def restore(self, pick):
        """Every leaf rewritten as deployed, one write each."""
        restore_tcam(self.controller.fabric, self.snapshot)

    def wipe(self, pick):
        self.taken.extend(self.tcam.write(self.tcam.match_keys(), {})[0])

    def empty_write(self, pick):
        """Writes that change nothing: no key at all, or only absent ones."""
        self.tcam.write((), {})
        absent = _foreign(pick).match_key()
        if absent not in self.tcam:
            self.tcam.write([absent], {})

    def second_reader(self, pick):
        """Someone else takes a sequence: a later write's sequence follows
        that one, not the one the proof holds."""
        self.tcam.rule_sequence()

    @rule(steps=st.lists(st.tuples(st.sampled_from(STEPS), _picks), min_size=1, max_size=5))
    def write_between_proofs(self, steps):
        """A few writes (and readers) in a row, as a fault or a storm lands
        between two audits."""
        for name, pick in steps:
            getattr(self, name)(pick)

    @rule(port=st.sampled_from((700, 799)))
    def edit_a_filter(self, port):
        uid = self.scenario.uids["filter_extra_0"]
        edited = Filter(uid=uid, name="port700", entries=(FilterEntry("tcp", port),))
        self.controller.modify_object("webshop", edited)
        self.delta.note_policy_change(uid)

    # -- the check ----------------------------------------------------- #
    @invariant()
    def the_folded_delta_is_the_key_delta(self):
        if not hasattr(self, "tcam"):
            return
        logical = self.controller.logical_rules()[LEAF]
        deployed = self.tcam.rule_sequence()
        result, proof = self.checker.prove_switch(LEAF, logical, deployed, self.proof)
        fresh = EquivalenceChecker()
        assert (proof.l_only, proof.t_only) == fresh._key_delta(logical, deployed)
        assert result == fresh.check_switch(LEAF, logical, deployed)
        self.proof = proof

        self.delta.refresh(switch_uids=[LEAF])
        oracle = EquivalenceChecker().check_network(
            self.controller.logical_rules(), self.controller.collect_deployed_rules()
        )
        assert self.delta.report().semantic_fingerprint() == oracle.semantic_fingerprint()


FoldedDeltaMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=20, deadline=None, derandomize=True
)
TestFoldedDeltaMachine = FoldedDeltaMachine.TestCase
