"""A batch audit is a refresh of a held checker, and it proves what a fresh
sweep proves.

``ScoutSystem.check()`` refreshes every switch of the system's
:class:`~repro.online.IncrementalChecker`; a switch whose compiled L and
``tcam.rule_sequence()`` are the objects its held verdict was proved from
gets that verdict back.  A state machine drives object faults,
``restore_tcam``, ``sync_tcam``, policy edits and idle steps on one small
fabric and audits after every step.  Each audit must equal a fresh
``EquivalenceChecker().check_network`` over the same compile and the
fabric's TCAMs on the raw :meth:`EquivalenceReport.fingerprint` (engine
labels and rule order included), list its switches in sorted order, and
answer exactly the leaves untouched since the previous audit from the
memo: counted under ``verdicts_reused``, with no ``check.switch`` span in
its trace.  The system's first audit is its checker's bootstrap sweep,
which starts no memo, so the prediction starts empty.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import ScoutSystem
from repro.experiments import restore_tcam, snapshot_tcam
from repro.faults.injector import FaultInjector
from repro.obs import TraceCollector
from repro.policy.objects import Filter, FilterEntry
from repro.verify import EquivalenceChecker
from repro.workloads import three_tier_scenario

pytestmark = pytest.mark.slow

LEAVES = ("leaf-1", "leaf-2", "leaf-3")


def _checked(collector):
    """The switches a traced audit proved (one ``check.switch`` span each)."""
    return [s.attrs["switch"] for s in collector.spans() if s.name == "check.switch"]


class AuditRefreshMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.scenario = three_tier_scenario()
        self.controller = self.scenario.controller
        self.deployed = snapshot_tcam(self.controller.fabric)
        self.system = ScoutSystem(self.controller)
        self.system.check()
        #: Per leaf, the (L, T) objects of the last audit; the bootstrap
        #: sweep's are not held.
        self.last = {}

    @rule(seed=st.integers(min_value=0, max_value=10_000))
    def fault(self, seed):
        injector = FaultInjector(self.controller, rng=random.Random(seed))
        if injector.faultable_objects():
            injector.inject_random_faults(1)
        self.audit()

    @rule()
    def restore(self):
        restore_tcam(self.controller.fabric, self.deployed)
        self.audit()

    @rule(leaf=st.sampled_from(LEAVES))
    def resync(self, leaf):
        self.controller.fabric.switch(leaf).sync_tcam()
        self.audit()

    @rule(port=st.sampled_from((700, 799, 8080)))
    def edit_a_filter(self, port):
        uid = self.scenario.uids["filter_extra_0"]
        edited = Filter(uid=uid, name="port700", entries=(FilterEntry("tcp", port),))
        self.controller.modify_object("webshop", edited)
        self.audit()

    @rule()
    def idle(self):
        self.audit()

    def audit(self):
        controller, system = self.controller, self.system
        logical = controller.logical_rules()
        switches = controller.fabric.switches
        inputs = {
            leaf: (logical.get(leaf), switches[leaf].tcam.rule_sequence())
            for leaf in LEAVES
        }
        reusable = {
            leaf
            for leaf, (l_side, t_side) in inputs.items()
            if l_side is not None
            and leaf in self.last
            and self.last[leaf][0] is l_side
            and self.last[leaf][1] is t_side
        }
        before = system.stats()["verdicts_reused"]
        collector = TraceCollector()

        report = system.check(trace=collector)

        fresh = EquivalenceChecker().check_network(
            logical, controller.collect_deployed_rules()
        )
        assert report.fingerprint() == fresh.fingerprint()
        assert list(report.results) == sorted(fresh.results)
        assert system.stats()["verdicts_reused"] - before == len(reusable)
        assert sorted(_checked(collector)) == sorted(set(LEAVES) - reusable)
        self.last = inputs


AuditRefreshMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=12, deadline=None, derandomize=True
)
TestAuditRefreshMachine = AuditRefreshMachine.TestCase


def test_an_untouched_leaf_is_answered_from_the_memo():
    scenario = three_tier_scenario()
    system = ScoutSystem(scenario.controller)
    system.check()  # the bootstrap sweep
    system.check()  # the first refresh: it starts the memo
    tcam = scenario.fabric.switch("leaf-2").tcam
    tcam.write([tcam.match_keys()[0]], {})
    before = system.stats()
    collector = TraceCollector()

    report = system.check(trace=collector)

    after = system.stats()
    assert report.switches_with_violations() == ["leaf-2"]
    assert after["verdicts_reused"] - before["verdicts_reused"] == 2
    assert _checked(collector) == ["leaf-2"]
    assert after["dispatched"] - before["dispatched"] == 1


def test_concurrent_audits_of_one_system_are_serialized():
    """The service audits one system on its worker thread and inline on
    request threads: every audit sees one refresh at a time, so all agree
    with a fresh sweep and no counter loses an update."""
    scenario = three_tier_scenario()
    controller = scenario.controller
    tcam = scenario.fabric.switch("leaf-3").tcam
    tcam.write([tcam.match_keys()[0]], {})
    expected = EquivalenceChecker().check_network(
        controller.logical_rules(), controller.collect_deployed_rules()
    )
    system = ScoutSystem(controller)
    threads, audits = 4, 25

    def audit_repeatedly():
        return [system.check().fingerprint() for _ in range(audits)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(audit_repeatedly) for _ in range(threads)]
            fingerprints = [
                fingerprint for future in futures for fingerprint in future.result(60)
            ]
    finally:
        sys.setswitchinterval(interval)
    assert fingerprints == [expected.fingerprint()] * threads * audits
    # One bootstrap; the first refresh proves every leaf, every later one
    # reuses every verdict.
    stats = system.incremental.stats()
    refreshes = threads * audits - 1
    assert stats["full_checks"] == 1
    assert stats["digest_short_circuits"] + stats["switch_checks"] == refreshes * 3
    assert stats["verdicts_reused"] == (refreshes - 1) * 3


def test_an_audit_waits_for_the_refresh_in_flight():
    """Two threads audit one system: the second refresh starts only after
    the first audit is done, and both read the same fingerprint."""
    scenario = three_tier_scenario()
    tcam = scenario.fabric.switch("leaf-3").tcam
    tcam.write([tcam.match_keys()[0]], {})
    system = ScoutSystem(scenario.controller)
    system.check()
    refresh = system.incremental.refresh
    entered, release = threading.Event(), threading.Event()
    in_flight, seen = [], []

    def held_open(*args, **kwargs):
        in_flight.append(None)
        seen.append(len(in_flight))
        entered.set()
        release.wait(timeout=5)
        try:
            return refresh(*args, **kwargs)
        finally:
            in_flight.pop()

    system.incremental.refresh = held_open
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(system.check)
        assert entered.wait(timeout=5)
        second = pool.submit(system.check)
        time.sleep(0.05)  # room for the second audit to reach its refresh
        release.set()
        reports = [first.result(timeout=10), second.result(timeout=10)]
    assert seen == [1, 1]
    assert reports[0].fingerprint() == reports[1].fingerprint()
    assert reports[0].switches_with_violations() == ["leaf-3"]
