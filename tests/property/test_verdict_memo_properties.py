"""A reused verdict is the verdict: the online checker's memo, under every
TCAM write path.

``IncrementalChecker.refresh`` answers a switch with its held verdict when
the compiled L and ``tcam.rule_sequence()`` are the very objects that
verdict was proved from.  That is sound only if every write that changes
what a table holds — match keys or provenance — makes the table hand out a
new sequence.  A state machine writes one small fabric's TCAMs through every
:class:`~repro.fabric.tcam.TcamTable` entry point (``install``, ``_insert``
over a present key, ``remove``, ``remove_rule``, ``remove_where``,
``clear``, eviction on a full table, a rejected install, a
transaction that puts back exactly what it took, the agent's resync) and
edits the policy (a real change, and an equal copy that moves no L), and
after every step refreshes every leaf and holds each verdict to a fresh
:meth:`EquivalenceChecker.check_switch` over the same L and T.  It also
predicts which leaves are reused — those whose L and T are the objects of
their last refresh — and that each is still returned and counted under the
route that proved it.

The monitor-level tests then show what a reused verdict still does: its
switch is re-checked in the pass (``switches_rechecked``) and its incident
stays where the verdict puts it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.online import IncrementalChecker, NetworkMonitor
from repro.policy.objects import Filter, FilterEntry
from repro.rules import TcamRule
from repro.verify import EquivalenceChecker
from repro.workloads import three_tier_scenario

pytestmark = pytest.mark.slow

LEAVES = ("leaf-1", "leaf-2", "leaf-3")
_picks = st.integers(min_value=0, max_value=10_000)


def _verdict(result) -> tuple:
    """A result's content, provenance included; not its engine label."""
    return (
        result.equivalent,
        result.logical_count,
        result.deployed_count,
        [rule.to_dict() for rule in result.missing_rules],
        [rule.to_dict() for rule in result.extra_rules],
    )


def _foreign(pick: int) -> TcamRule:
    """A rule no policy of the scenario renders (or one it does, by chance)."""
    return TcamRule(
        vrf_scope=101,
        src_epg=1 + pick % 4,
        dst_epg=1 + pick // 4 % 4,
        protocol="tcp",
        port=(80, 700, 8080)[pick % 3],
        contract_uid="contract:elsewhere",
    )


class VerdictMemoMachine(RuleBasedStateMachine):
    """Three leaves, one checker, every write between two refreshes."""

    @initialize()
    def start(self):
        self.scenario = three_tier_scenario()
        self.controller = self.scenario.controller
        self.delta = IncrementalChecker(self.controller)
        self.delta.bootstrap()
        #: Per leaf, the (L, T) objects of its last refresh.
        self.last = {}
        self.refresh_all()

    def _tcam(self, leaf):
        return self.controller.fabric.switch(leaf).tcam

    # -- the TCAM write paths ------------------------------------------ #
    @rule(leaf=st.sampled_from(LEAVES), pick=_picks)
    def install(self, leaf, pick):
        self._tcam(leaf).install(_foreign(pick))

    @rule(leaf=st.sampled_from(LEAVES), pick=_picks)
    def refresh_provenance(self, leaf, pick):
        """``_insert`` over a present key: same match, new provenance."""
        tcam = self._tcam(leaf)
        rules = tcam.rules()
        if rules:
            held = rules[pick % len(rules)]
            edited = dataclasses.replace(held, contract_uid=f"contract:{pick}")
            tcam._insert(held.match_key(), edited)

    @rule(leaf=st.sampled_from(LEAVES), pick=_picks)
    def reinstall_the_same_rule(self, leaf, pick):
        tcam = self._tcam(leaf)
        rules = tcam.rules()
        if rules:
            tcam.install(rules[pick % len(rules)])

    @rule(leaf=st.sampled_from(LEAVES), pick=_picks)
    def remove(self, leaf, pick):
        tcam = self._tcam(leaf)
        keys = tcam.match_keys()
        if keys:
            tcam.remove(keys[pick % len(keys)])

    @rule(leaf=st.sampled_from(LEAVES), pick=_picks)
    def remove_rule(self, leaf, pick):
        tcam = self._tcam(leaf)
        rules = tcam.rules()
        if rules:
            tcam.remove_rule(rules[pick % len(rules)])

    @rule(leaf=st.sampled_from(LEAVES), port=st.sampled_from((80, 700, 8080)))
    def remove_where(self, leaf, port):
        self._tcam(leaf).remove_where(lambda held: held.port == port)

    @rule(leaf=st.sampled_from(LEAVES))
    def clear(self, leaf):
        self._tcam(leaf).clear()

    @rule(leaf=st.sampled_from(LEAVES), pick=_picks, evict=st.booleans())
    def install_into_a_full_table(self, leaf, pick, evict):
        """Eviction (or a rejected install) on a table at capacity."""
        tcam = self._tcam(leaf)
        if not len(tcam):
            return
        tcam.capacity, tcam.evict_on_overflow = len(tcam), evict
        try:
            tcam.install(_foreign(pick))
        finally:
            tcam.capacity, tcam.evict_on_overflow = None, False

    @rule(leaf=st.sampled_from(LEAVES), pick=_picks)
    def take_and_put_back(self, leaf, pick):
        """A transaction that re-installs exactly what it removed (the same
        order too when the rule was the table's last)."""
        tcam = self._tcam(leaf)
        keys = tcam.match_keys()
        if not keys:
            return
        key = keys[pick % len(keys)]
        with tcam.transaction():
            taken = tcam.remove(key)
            tcam._insert(key, taken)

    @rule(leaf=st.sampled_from(LEAVES))
    def resync(self, leaf):
        self.controller.fabric.switch(leaf).sync_tcam()

    # -- the L side ---------------------------------------------------- #
    @rule(port=st.sampled_from((700, 799, 8080)))
    def edit_a_filter(self, port):
        uid = self.scenario.uids["filter_extra_0"]
        edited = Filter(uid=uid, name="port700", entries=(FilterEntry("tcp", port),))
        self.controller.modify_object("webshop", edited)
        self.delta.note_policy_change(uid)

    @rule(name=st.sampled_from(("web", "app", "db", "app_db_contract")))
    def modify_with_an_equal_copy(self, name):
        uid = self.scenario.uids[name]
        copy = dataclasses.replace(self.controller.policy.get(uid))
        self.controller.modify_object("webshop", copy)
        self.delta.note_policy_change(uid)

    # -- the check ----------------------------------------------------- #
    def refresh_all(self):
        delta = self.delta
        compiled = self.controller.logical_rules()
        inputs = {
            leaf: (compiled[leaf], self._tcam(leaf).rule_sequence()) for leaf in LEAVES
        }
        reusable = set()
        for leaf, (logical, deployed) in inputs.items():
            held = self.last.get(leaf, (None, None))
            if held[0] is logical and held[1] is deployed:
                reusable.add(leaf)
        before = delta.stats()
        verdicts = delta.results()

        refreshed = delta.refresh(switch_uids=LEAVES)

        after = delta.stats()
        assert sorted(refreshed) == list(LEAVES)
        assert after["verdicts_reused"] - before["verdicts_reused"] == len(reusable)
        routes = ("digest_short_circuits", "switch_checks")
        assert sum(after[key] - before[key] for key in routes) == len(LEAVES)
        for leaf, (logical, deployed) in inputs.items():
            fresh = EquivalenceChecker().check_switch(leaf, logical, deployed)
            assert _verdict(refreshed[leaf]) == _verdict(fresh)
            if leaf in reusable:
                assert refreshed[leaf] is verdicts[leaf]
        self.last = inputs  # a refresh writes no TCAM and compiles nothing new

    @invariant()
    def every_verdict_is_a_fresh_check(self):
        if hasattr(self, "delta"):
            self.refresh_all()


VerdictMemoMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=25, deadline=None, derandomize=True
)
TestVerdictMemoMachine = VerdictMemoMachine.TestCase


# ---------------------------------------------------------------------- #
# Through the monitor
# ---------------------------------------------------------------------- #
def _equal_copy_edit(scenario, name):
    """A policy event whose blast radius moves no L and no T."""
    controller = scenario.controller
    uid = scenario.uids[name]
    controller.modify_object("webshop", dataclasses.replace(controller.policy.get(uid)))
    controller.clock.tick(2)


def test_a_reused_verdict_is_still_a_rechecked_switch():
    scenario = three_tier_scenario()
    monitor = NetworkMonitor(scenario.controller, debounce_ticks=1)
    monitor.start()
    _equal_copy_edit(scenario, "app")
    proved = monitor.poll()
    assert proved.switches_rechecked == list(LEAVES)
    assert monitor.stats()["verdicts_reused"] == 0

    _equal_copy_edit(scenario, "app")
    reused = monitor.poll()
    stats = monitor.stats()
    assert reused.switches_rechecked == list(LEAVES)
    assert stats["verdicts_reused"] == len(LEAVES)
    # Counted where the identity proof counted them the first time.
    assert stats["digest_short_circuits"] == 2 * len(LEAVES)
    assert stats["switch_checks"] == 0


def test_a_reused_violation_keeps_its_incident_open():
    scenario = three_tier_scenario()
    monitor = NetworkMonitor(scenario.controller, debounce_ticks=1)
    monitor.start()
    lost = scenario.fabric.switch("leaf-2").tcam.remove_where(lambda r: r.port == 700)
    scenario.controller.clock.tick(2)
    [incident] = monitor.poll().opened
    checks = monitor.stats()["switch_checks"]

    _equal_copy_edit(scenario, "db")
    again = monitor.poll()
    assert "leaf-2" in again.switches_rechecked
    assert monitor.stats()["verdicts_reused"] >= 1
    assert monitor.stats()["switch_checks"] == checks + 1  # leaf-2, by its route
    assert incident.is_open and incident.missing_rules == len(lost)
    assert again.resolved == [] and again.opened == []
    assert not monitor.report().results["leaf-2"].equivalent
