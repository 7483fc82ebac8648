"""The TCAM's bulk write == the per-rule writes it replaced.

``TcamTable.write`` removes a batch of keys and installs a batch of rules as
one transaction: the rules that fit go in with one dict update, and only the
rules past the capacity go through ``install()``.  ``Switch._reconcile`` and
``TcamTable.remove_where`` are built on it.  The per-rule forms they replaced
live here, not in ``src/``, as the references: one ``remove()`` per stale
key, one ``install()`` per new rule, inside one transaction.

The cases are the ones where a capacity shortcut would show: a reconcile
that fills the table exactly, one that overflows it by ``k``, one that finds
it full, and no capacity at all — each with and without
``evict_on_overflow``.  Everything must come out equal: the rules installed
and their order, the rejected rules and the evicted victims, the
``install_attempts`` / ``rejected_installs`` / ``evictions`` counters, the
fault-log entries and the one listener call per write with its totals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.clock import LogicalClock
from repro.fabric import Switch, TcamTable
from repro.fabric.faultlog import FaultCode
from repro.fabric.tcam import InstallOutcome
from repro.rules import MatchKey, TcamRule

CAPACITY = 8


def _rule(port: int, filter_uid: str = "flt:1") -> TcamRule:
    return TcamRule(
        vrf_scope=101,
        src_epg=1,
        dst_epg=2,
        protocol="tcp",
        port=port,
        vrf_uid="vrf:1",
        src_epg_uid="epg:a",
        dst_epg_uid="epg:b",
        contract_uid="ctr:1",
        filter_uid=filter_uid,
    )


def _keyed(rules: List[TcamRule]) -> Dict[MatchKey, TcamRule]:
    return {rule.match_key(): rule for rule in rules}


# ---------------------------------------------------------------------- #
# References
# ---------------------------------------------------------------------- #
def reference_write(
    table: TcamTable, stale: List[MatchKey], fresh: Dict[MatchKey, TcamRule]
) -> Tuple[List[TcamRule], List[Tuple[InstallOutcome, Optional[TcamRule]]]]:
    """One ``remove()`` per stale key, then one ``install()`` per new rule,
    in one transaction; every install's outcome."""
    with table.transaction():
        removed = [rule for rule in map(table.remove, stale) if rule is not None]
        outcomes = [table.install(rule) for rule in fresh.values()]
    return removed, outcomes


def reference_reconcile(switch: Switch, desired: Dict[MatchKey, TcamRule]) -> Dict[str, int]:
    """``Switch._reconcile`` before the bulk write, line for line."""
    held_keys = switch.tcam.match_keys()
    installed_keys = set(held_keys)
    with switch.tcam.transaction():
        removed = 0
        for key in held_keys:
            if key in desired:
                continue
            if switch.tcam.remove(key) is not None:
                removed += 1
        installed = rejected = evicted = 0
        overflow_logged = False
        for key, rule in desired.items():
            if key in installed_keys:
                continue
            outcome, evicted_rule = switch.tcam.install(rule)
            if outcome is InstallOutcome.REJECTED_FULL:
                rejected += 1
                if not overflow_logged:
                    switch.fault_log.raise_fault(
                        switch.clock.peek(),
                        switch.uid,
                        FaultCode.TCAM_OVERFLOW,
                        detail=(
                            f"TCAM full ({switch.tcam.capacity} entries); "
                            f"rule install rejected"
                        ),
                    )
                    overflow_logged = True
            elif outcome is InstallOutcome.INSTALLED_WITH_EVICTION:
                installed += 1
                evicted += 1
                switch.fault_log.raise_fault(
                    switch.clock.peek(),
                    switch.uid,
                    FaultCode.RULE_EVICTION,
                    detail=f"evicted {evicted_rule.describe() if evicted_rule else 'rule'}",
                )
            else:
                installed += 1
    return {"installed": installed, "removed": removed, "rejected": rejected, "evicted": evicted}


# ---------------------------------------------------------------------- #
# Cases
# ---------------------------------------------------------------------- #
#: Held before the write: ports 1-6.  Ports 1 and 2 are stale (the desired
#: rules no longer want them), so the write frees two entries and the table
#: has ``CAPACITY - 4`` free once they are gone.
HELD = [_rule(port) for port in range(1, 7)]
STALE = HELD[:2]
WANTED = HELD[2:]
ROOM = CAPACITY - len(WANTED)


def _table(capacity: Optional[int], evict: bool) -> Tuple[TcamTable, list]:
    table = TcamTable(capacity=capacity, evict_on_overflow=evict)
    for rule in HELD:
        table.install(rule)
    calls: list = []
    table.subscribe(lambda installed, lost: calls.append((installed, lost)))
    return table, calls


def _counters(table: TcamTable) -> Tuple[int, int, int]:
    return table.install_attempts, table.rejected_installs, table.evictions


#: (capacity, new rules): filling the table exactly, overflowing it by 1 and
#: by 3, a table left full by the removals' absence (no stale keys below),
#: and an unbounded table.
CASES = [
    (CAPACITY, ROOM),
    (CAPACITY, ROOM + 1),
    (CAPACITY, ROOM + 3),
    (None, ROOM + 3),
]


def _fresh(count: int) -> Dict[MatchKey, TcamRule]:
    # Out of port order, so an install order that followed anything but the
    # given order would show in the table's order.
    ports = [100 + (7 * i) % 23 for i in range(count)]
    return _keyed([_rule(port, filter_uid=f"flt:{port}") for port in ports])


@pytest.mark.parametrize("evict", [False, True])
@pytest.mark.parametrize("capacity,count", CASES)
@pytest.mark.parametrize("with_stale", [True, False])
def test_write_equals_per_rule_writes(capacity, count, evict, with_stale):
    stale = [rule.match_key() for rule in STALE] if with_stale else []
    fresh = _fresh(count)
    bulk, bulk_calls = _table(capacity, evict)
    naive, naive_calls = _table(capacity, evict)
    snapshot = bulk.rule_sequence()  # a lent dict: the write copies it first

    removed, overflowed = bulk.write(stale, fresh)
    naive_removed, outcomes = reference_write(naive, stale, fresh)

    assert bulk.rules() == naive.rules()  # installed, in order
    assert removed == naive_removed
    # Only the rules past the capacity went through install(); the others
    # were installed, as the reference installed them.
    fitted = len(fresh) - len(overflowed)
    assert all(outcome is InstallOutcome.INSTALLED for outcome, _ in outcomes[:fitted])
    assert overflowed == outcomes[fitted:]  # the rejections and evicted victims
    assert _counters(bulk) == _counters(naive)
    assert bulk_calls == naive_calls and len(bulk_calls) == 1
    if capacity is not None:
        assert len(bulk) <= capacity
    # The snapshot lent its dict before the write and still holds it as it was.
    assert list(snapshot) == HELD
    assert snapshot.keys() == tuple(rule.match_key() for rule in HELD)


@pytest.mark.parametrize("evict", [False, True])
@pytest.mark.parametrize("capacity,count", CASES)
def test_reconcile_equals_per_rule_reconcile(capacity, count, evict):
    desired = {**_keyed(WANTED), **_fresh(count)}
    switches = []
    for _ in range(2):
        table, calls = _table(capacity, evict)
        switches.append((Switch(uid="leaf-1", tcam=table, clock=LogicalClock()), calls))
    (bulk, bulk_calls), (naive, naive_calls) = switches

    assert bulk._reconcile(dict(desired)) == reference_reconcile(naive, dict(desired))
    assert bulk.tcam.rules() == naive.tcam.rules()
    assert _counters(bulk.tcam) == _counters(naive.tcam)
    logged = [(r.code, r.detail) for r in bulk.fault_log.records()]
    assert logged == [(r.code, r.detail) for r in naive.fault_log.records()]
    assert bulk_calls == naive_calls and len(bulk_calls) == 1
    if capacity is not None and count > ROOM:
        # The case overflows: the fault log says so, by rejection or eviction.
        assert logged


def test_a_full_table_sends_every_new_rule_through_install():
    table = TcamTable(capacity=len(HELD), evict_on_overflow=True)
    for rule in HELD:
        table.install(rule)
    fresh = _fresh(3)
    removed, overflowed = table.write([], fresh)
    assert removed == []
    assert [victim for _, victim in overflowed] == HELD[:3]
    assert table.rules() == HELD[3:] + list(fresh.values())


def test_nothing_to_write_is_no_write():
    table, calls = _table(CAPACITY, False)
    snapshot = table.rule_sequence()
    assert table.write([], {}) == ([], [])
    assert calls == [] and table.rule_sequence() is snapshot


def test_remove_where_asks_once_per_rule_and_writes_once():
    table, calls = _table(None, False)
    snapshot = table.rule_sequence()
    asked: List[TcamRule] = []

    def odd(rule: TcamRule) -> bool:
        asked.append(rule)
        return rule.port % 2 == 1

    removed = table.remove_where(odd)
    assert asked == HELD  # once each, in table order, before any removal
    assert removed == [rule for rule in HELD if rule.port % 2 == 1]
    assert table.rules() == [rule for rule in HELD if rule.port % 2 == 0]
    assert calls == [(0, len(removed))]
    assert list(snapshot) == HELD
    assert snapshot.keys() == tuple(rule.match_key() for rule in HELD)
