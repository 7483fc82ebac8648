"""One key object per match: a rule's match key and the table it comes from.

Every :class:`~repro.rules.TcamRule` computes its match key once and draws
it from one process-wide table, so equal matches share one tuple: that is
what lets a probe between L and T succeed on identity.  These tests pin
every way a rule is made, the sweep that keeps the table bounded by what is
live, and the sharing across a deployed fabric under churn.  Identity is
only a speed-up — that no verdict rests on it is
``tests/property/test_ap_differential_properties.py``'s.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.churn import ChurnDriver, generate_churn_stream
from repro.churn.events import Checkpoint
from repro.rules import _KEYS, RuleSequence, TcamRule

#: A VRF scope no scenario uses, so these keys are this module's alone.
VRF = 9001
MATCH_FIELDS = ("vrf_scope", "src_epg", "dst_epg", "protocol", "port", "action")


def _fields(rule: TcamRule) -> tuple:
    return tuple(getattr(rule, name) for name in MATCH_FIELDS)


def _rule(n: int, **provenance) -> TcamRule:
    return TcamRule(VRF, n, n + 1, "tcp", n, **provenance)


def _held_ids() -> set:
    """The src ids of this module's keys still in the table."""
    return {key[1] for key in list(_KEYS) if key[0] == VRF}


class TestEveryRuleSharesItsKey:
    def test_init(self):
        live = _rule(1)
        again = _rule(1, contract_uid="contract:other")
        assert live.match_key() == _fields(live)
        assert again.match_key() is live.match_key()
        assert again != live  # provenance still tells the rules apart

    def test_from_dict(self):
        live = _rule(2, filter_uid="filter:f")
        rebuilt = TcamRule.from_dict(live.to_dict())
        assert rebuilt == live
        assert rebuilt.match_key() == _fields(rebuilt)
        assert rebuilt.match_key() is live.match_key()

    def test_replace(self):
        live = _rule(3)
        same_match = dataclasses.replace(live, contract_uid="contract:x")
        moved = dataclasses.replace(live, port=4443)
        assert same_match.match_key() is live.match_key()
        assert moved.match_key() == _fields(moved) == (VRF, 3, 4, "tcp", 4443, "allow")
        assert moved.match_key() is dataclasses.replace(live, port=4443).match_key()

    def test_copy(self):
        live = _rule(4)
        for duplicate in (copy.copy(live), copy.deepcopy(live)):
            assert duplicate == live
            assert duplicate.match_key() == _fields(duplicate)
        assert copy.copy(live).match_key() is live.match_key()

    def test_from_keys(self):
        live = _rule(5)
        # An equal key that is not the shared one: what crosses a process
        # boundary.
        foreign = tuple(list(live.match_key()))
        assert foreign is not live.match_key()
        rebuilt = RuleSequence.from_keys([foreign, foreign])
        assert [rule.match_key() for rule in rebuilt] == [foreign, foreign]
        assert all(rule.match_key() is live.match_key() for rule in rebuilt)
        assert all(key is live.match_key() for key in rebuilt.keys())

    def test_pickle_round_trip(self):
        live = _rule(6, vrf_uid="vrf:v")
        loaded = pickle.loads(pickle.dumps(live))
        assert loaded == live
        assert loaded.match_key() == _fields(loaded) == live.match_key()

    def test_key_stays_out_of_the_fields(self):
        live = _rule(7)
        names = [field.name for field in dataclasses.fields(live)]
        assert tuple(names[:6]) == MATCH_FIELDS and "_key" not in names
        assert "_key" not in repr(live)
        assert "_key" not in live.to_dict()
        assert hash(live) == hash(_rule(7))


class TestTheSweep:
    def test_drops_unheld_keys_and_keeps_held_ones(self):
        kept_rule = _rule(100)
        by_frozenset = frozenset([_rule(101).match_key()])
        by_dict_key = {_rule(102).match_key(): "value"}
        _rule(103)  # nothing holds it once made
        assert {100, 101, 102, 103} <= _held_ids()

        _KEYS.sweep()

        held = _held_ids()
        assert {100, 101, 102} <= held
        assert 103 not in held
        # The kept keys are still the shared objects.
        assert _rule(100).match_key() is kept_rule.match_key()
        assert _rule(101).match_key() in by_frozenset
        assert next(iter(by_frozenset)) is _rule(101).match_key()
        assert next(iter(by_dict_key)) is _rule(102).match_key()

    def test_a_swept_key_is_made_again_equal(self):
        first = _rule(110).match_key()
        del first
        _KEYS.sweep()
        assert 110 not in _held_ids()
        again = _rule(110)
        assert again.match_key() == (VRF, 110, 111, "tcp", 110, "allow")
        assert 110 in _held_ids()

    def test_the_table_sweeps_itself_when_it_doubles(self):
        _KEYS.sweep()
        live = len(_KEYS)
        made = 2 * live + 3
        for n in range(1000, 1000 + made):
            _rule(n)  # each dropped at once
        # Unswept, the table would hold `live + made` keys.  Doubling since
        # the last sweep triggered one, which kept only the live keys and
        # the key being inserted.
        assert len(_KEYS) <= 2 * (live + 1) < live + made
        assert len(_KEYS) <= 2 * _KEYS.swept


@pytest.mark.slow
def test_a_churned_fabric_holds_one_key_per_match():
    """``simulation`` deploy plus 600 churn events: every TCAM key is the
    compiled L's key object, and the table holds at most twice the live
    keys."""
    driver = ChurnDriver.for_workload("simulation", events=600, seed=2018)
    for event in generate_churn_stream(driver.profile):
        if not isinstance(event, Checkpoint):
            driver.apply(event)
            driver.clock.tick()
    controller = driver.controller
    compiled = controller.logical_rules()
    shared = 0
    for uid, switch in controller.fabric.switches.items():
        logical = {key: key for key in compiled[uid].keys()} if uid in compiled else {}
        for key in switch.tcam.match_keys():
            if key in logical:
                assert logical[key] is key
                shared += 1
    assert shared > 10_000

    held = len(_KEYS)
    _KEYS.sweep()
    assert held <= 2 * len(_KEYS)
