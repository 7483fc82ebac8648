"""The TCAM's bulk write == a per-rule model of the table.

``TcamTable.write`` removes a batch of keys and installs a batch of rules as
one write: the rules that fit go in with one dict update, and each rule past
the capacity is rejected or evicts the oldest.  ``Switch._reconcile`` and
``TcamTable.remove_where`` are built on it.  The reference is
:class:`TcamModel`, §II-B's table written one rule at a time.

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

from oracles import TcamModel

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
# Reference
# ---------------------------------------------------------------------- #
def reference_reconcile(
    model: TcamModel, desired: Dict[MatchKey, TcamRule]
) -> Tuple[Dict[str, int], List[Tuple[FaultCode, str]]]:
    """``Switch._reconcile`` over the model: the held keys ``desired`` lacks
    go, the rules of ``desired`` the table lacks go in, in its order; the
    counters it returns and the faults it logs — the first rejection and
    every eviction."""
    stale = [key for key in model.entries if key not in desired]
    fresh = {key: rule for key, rule in desired.items() if key not in model.entries}
    removed, overflowed = model.write(stale, fresh)
    rejected = [victim for outcome, victim in overflowed if outcome is InstallOutcome.REJECTED_FULL]
    evicted = [victim for outcome, victim in overflowed if outcome is not InstallOutcome.REJECTED_FULL]
    logged = []
    if rejected:
        detail = f"TCAM full ({model.capacity} entries); rule install rejected"
        logged.append((FaultCode.TCAM_OVERFLOW, detail))
    logged += [(FaultCode.RULE_EVICTION, f"evicted {victim.describe()}") for victim in evicted]
    counters = {
        "installed": len(fresh) - len(rejected),
        "removed": len(removed),
        "rejected": len(rejected),
        "evicted": len(evicted),
    }
    return counters, logged


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
    table.write((), _keyed(HELD))
    calls: list = []
    table.subscribe(lambda installed, lost: calls.append((installed, lost)))
    return table, calls


def _model(capacity: Optional[int], evict: bool) -> TcamModel:
    model = TcamModel(capacity, evict)
    model.write([], _keyed(HELD))
    model.calls.clear()
    return model


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
def test_write_equals_the_model(capacity, count, evict, with_stale):
    stale = [rule.match_key() for rule in STALE] if with_stale else []
    fresh = _fresh(count)
    bulk, bulk_calls = _table(capacity, evict)
    model = _model(capacity, evict)
    snapshot = bulk.rule_sequence()  # a lent dict: the write copies it first

    removed, overflowed = bulk.write(stale, fresh)

    assert (removed, overflowed) == model.write(stale, fresh)  # rejections, victims
    assert bulk.rules() == list(model.entries.values())  # installed, in order
    assert _counters(bulk) == model.counters()
    assert bulk_calls == model.calls and len(bulk_calls) == 1
    if capacity is not None:
        assert len(bulk) <= capacity
    # The snapshot lent its dict before the write and still holds it as it was.
    assert list(snapshot) == HELD
    assert snapshot.keys() == tuple(rule.match_key() for rule in HELD)


@pytest.mark.parametrize("evict", [False, True])
@pytest.mark.parametrize("capacity,count", CASES)
def test_reconcile_equals_the_model(capacity, count, evict):
    desired = {**_keyed(WANTED), **_fresh(count)}
    table, calls = _table(capacity, evict)
    switch = Switch(uid="leaf-1", tcam=table, clock=LogicalClock())
    model = _model(capacity, evict)

    counters, expected_log = reference_reconcile(model, dict(desired))
    assert switch._reconcile(dict(desired)) == counters
    assert table.rules() == list(model.entries.values())
    assert _counters(table) == model.counters()
    logged = [(r.code, r.detail) for r in switch.fault_log.records()]
    assert logged == expected_log
    assert calls == model.calls and len(calls) == 1
    if capacity is not None and count > ROOM:
        # The case overflows: the fault log says so, by rejection or eviction.
        assert logged


def test_a_full_table_evicts_the_oldest_rule_for_each_new_one():
    table = TcamTable(capacity=len(HELD), evict_on_overflow=True)
    table.write((), _keyed(HELD))
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
