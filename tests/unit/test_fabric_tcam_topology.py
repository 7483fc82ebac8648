"""Unit tests for the TCAM table, fault log book and leaf-spine topology."""

import random

import pytest

from repro.exceptions import FabricError, TcamError
from repro.fabric import FaultCode, FaultLogBook, InstallOutcome, LeafSpineTopology, TcamTable
from repro.rules import TcamRule


def _rule(port: int, src: int = 1, dst: int = 2) -> TcamRule:
    return TcamRule(101, src, dst, "tcp", port, src_epg_uid=f"epg:{src}", dst_epg_uid=f"epg:{dst}")


def _fresh(*rules: TcamRule):
    return {rule.match_key(): rule for rule in rules}


class TestTcamTable:
    def test_write_installs_and_contains(self):
        tcam = TcamTable()
        assert tcam.write((), _fresh(_rule(80))) == ([], [])
        assert _rule(80).match_key() in tcam
        assert len(tcam) == 1

    def test_capacity_rejection(self):
        tcam = TcamTable(capacity=2)
        tcam.write((), _fresh(_rule(80), _rule(81)))
        assert tcam.write((), _fresh(_rule(82)))[1] == [(InstallOutcome.REJECTED_FULL, None)]
        assert tcam.rejected_installs == 1
        assert len(tcam) == 2

    def test_eviction_on_overflow(self):
        tcam = TcamTable(capacity=2, evict_on_overflow=True)
        first = _rule(80)
        tcam.write((), _fresh(first, _rule(81)))
        [(outcome, evicted)] = tcam.write((), _fresh(_rule(82)))[1]
        assert outcome is InstallOutcome.INSTALLED_WITH_EVICTION
        assert evicted is first
        assert tcam.match_keys() == [_rule(81).match_key(), _rule(82).match_key()]
        assert tcam.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(TcamError):
            TcamTable(capacity=0)

    def test_remove_and_remove_where(self):
        tcam = TcamTable()
        tcam.write((), _fresh(*(_rule(port) for port in (80, 81, 82))))
        assert len(tcam.write([_rule(81).match_key()], {})[0]) == 1
        assert tcam.write([_rule(81).match_key()], {})[0] == []
        removed = tcam.remove_where(lambda rule: rule.port == 82)
        assert len(removed) == 1
        assert len(tcam) == 1

    def test_rule_sequence_carries_the_table_keys(self):
        tcam = TcamTable()
        tcam.write((), _fresh(_rule(80), _rule(81)))
        sequence = tcam.rule_sequence()
        assert list(sequence) == tcam.rules()
        assert list(sequence.keys()) == tcam.match_keys()
        assert sequence.key_set() == set(tcam.match_keys())
        # A snapshot, not a view: later writes do not reach it.
        tcam.write([_rule(80).match_key()], {})
        assert len(sequence) == 2 and len(sequence.key_set()) == 2

    def test_rule_sequence_is_handed_out_again_only_for_the_very_same_content(self):
        tcam = TcamTable()
        rules = [_rule(port) for port in (80, 81, 82)]
        tcam.write((), _fresh(*rules))
        held = tcam.rule_sequence()
        assert tcam.rule_sequence() is held
        # Rewritten with what it held (how a snapshot restore leaves it).
        tcam.write(tcam.match_keys(), {})
        assert list(tcam.rule_sequence()) == []
        tcam.write((), _fresh(*rules))
        assert list(tcam.rule_sequence()) == rules
        assert tcam.rule_sequence() is tcam.rule_sequence()
        # Same keys, another order or another rule object: a new snapshot.
        held = tcam.rule_sequence()
        tcam.write([rules[0].match_key()], _fresh(rules[0]))
        assert tcam.rule_sequence() is not held
        assert list(tcam.rule_sequence().keys()) == tcam.match_keys()
        held = tcam.rule_sequence()
        refreshed = TcamRule(101, 1, 2, "tcp", 81, src_epg_uid="epg:other")
        tcam.write([refreshed.match_key()], _fresh(refreshed))
        assert tcam.rule_sequence() is not held
        assert refreshed in tcam.rule_sequence() and refreshed not in held

    def test_rule_sequence_follows_every_kind_of_write(self):
        rng = random.Random(7)
        tcam = TcamTable(capacity=12, evict_on_overflow=True)
        for step in range(400):
            kind = rng.choice(["install", "install", "remove", "remove_where", "wipe"])
            if kind == "install":
                rule = _rule(rng.randrange(20), src=rng.randrange(1, 3))
                tcam.write([rule.match_key()], _fresh(rule))
            elif kind == "remove" and len(tcam):
                tcam.write([rng.choice(tcam.match_keys())], {})
            elif kind == "remove_where":
                tcam.remove_where(lambda rule: rule.port % 5 == step % 5)
            elif kind == "wipe" and rng.random() < 0.2:
                tcam.write(tcam.match_keys(), {})
            sequence = tcam.rule_sequence()
            assert list(sequence) == tcam.rules()
            assert list(sequence.keys()) == tcam.match_keys()
            assert sequence.key_set() == frozenset(tcam.match_keys())
            assert [rule.match_key() for rule in sequence] == tcam.match_keys()

    def test_writes_to_an_empty_table_are_noops(self):
        tcam = TcamTable()
        heard = []
        tcam.subscribe(lambda installed, lost: heard.append((installed, lost)))
        assert tcam.write([_rule(80).match_key()], {}) == ([], [])
        assert tcam.remove_where(lambda rule: True) == []
        tcam.write(tcam.match_keys(), {})
        assert len(tcam) == 0 and heard == []

    def test_write_returns_the_held_rule_of_each_stale_key(self):
        tcam = TcamTable()
        installed = _rule(80)
        tcam.write((), _fresh(installed))
        # An equal rule built apart names the held one, which comes back.
        assert tcam.write([_rule(80).match_key()], {})[0][0] is installed
        assert len(tcam) == 0

    def test_room_follows_capacity_and_removals(self):
        unbounded = TcamTable()
        assert unbounded.write((), _fresh(*(_rule(port) for port in range(50))))[1] == []
        tcam = TcamTable(capacity=2)
        assert tcam.write((), _fresh(_rule(80), _rule(81)))[1] == []
        # The stale key leaves first, so its slot takes the fresh rule.
        assert tcam.write([_rule(80).match_key()], _fresh(_rule(82)))[1] == []
        assert tcam.match_keys() == [_rule(81).match_key(), _rule(82).match_key()]

    def test_install_attempts_count_every_outcome(self):
        tcam = TcamTable(capacity=1)
        tcam.write((), _fresh(_rule(80)))  # installed
        tcam.write((), _fresh(_rule(81)))  # rejected
        assert (tcam.install_attempts, tcam.rejected_installs, tcam.evictions) == (2, 1, 0)

    def test_a_write_of_every_key_empties_the_table(self):
        tcam = TcamTable()
        tcam.write((), _fresh(_rule(80)))
        tcam.write(tcam.match_keys(), {})
        assert len(tcam) == 0

    def test_writes_counts_every_write_with_something_to_write(self):
        """``writes`` moves once per call that names a key — whatever the
        call did to the table — and an empty ``write`` is no write."""
        tcam = TcamTable(capacity=2, evict_on_overflow=True)
        steps = [
            lambda: tcam.write([], _fresh(_rule(80))),
            lambda: tcam.write([], _fresh(_rule(81), _rule(82), _rule(83))),  # two evictions
            lambda: tcam.write([_rule(82).match_key()], {}),
            lambda: tcam.write([_rule(99).match_key()], {}),  # absent
            lambda: tcam.write([_rule(83).match_key()], _fresh(_rule(84))),
            lambda: tcam.remove_where(lambda rule: rule.port == 84),
        ]
        for expected, step in enumerate(steps, start=1):
            step()
            assert tcam.writes == expected
        assert tcam.write([], {}) == ([], [])
        assert tcam.remove_where(lambda rule: rule.port == 99) == []
        # Reads are not writes.
        tcam.rule_sequence(), tcam.rules(), tcam.match_keys(), len(tcam)
        assert tcam.writes == len(steps)


    def test_an_overflowing_write_evicts_rules_of_that_same_write(self):
        tcam = TcamTable(capacity=2, evict_on_overflow=True)
        rules = [_rule(port) for port in (80, 81, 82, 83)]
        removed, overflowed = tcam.write((), _fresh(*rules))
        # The two that fit go in first; each later one evicts the oldest held.
        assert removed == []
        assert overflowed == [
            (InstallOutcome.INSTALLED_WITH_EVICTION, rules[0]),
            (InstallOutcome.INSTALLED_WITH_EVICTION, rules[1]),
        ]
        assert tcam.rules() == rules[2:]
        assert (tcam.install_attempts, tcam.rejected_installs, tcam.evictions) == (4, 0, 2)

    def test_a_rejecting_write_keeps_the_rules_that_fit_in_order(self):
        tcam = TcamTable(capacity=2)
        rules = [_rule(port) for port in (80, 81, 82, 83)]
        assert tcam.write((), _fresh(*rules))[1] == [(InstallOutcome.REJECTED_FULL, None)] * 2
        assert tcam.rules() == rules[:2]
        assert (tcam.install_attempts, tcam.rejected_installs, tcam.evictions) == (4, 2, 0)

    def test_stale_keys_the_table_lacks_are_skipped(self):
        tcam = TcamTable()
        first, second = _rule(80), _rule(81)
        tcam.write((), _fresh(first, second))
        stale = [_rule(99).match_key(), second.match_key(), _rule(98).match_key(), first.match_key()]
        assert tcam.write(stale, {})[0] == [second, first]
        assert len(tcam) == 0

    def test_a_write_leaves_a_handed_out_sequence_unchanged(self):
        tcam = TcamTable()
        rules = [_rule(port) for port in (80, 81, 82)]
        tcam.write((), _fresh(*rules))
        sequence = tcam.rule_sequence()
        keys = list(sequence.keys())
        tcam.write([rules[1].match_key()], _fresh(_rule(83), _rule(84)))
        assert list(sequence) == rules
        assert list(sequence.keys()) == keys
        assert sequence.key_set() == set(keys)
        assert tcam.match_keys() == [rules[0].match_key(), rules[2].match_key(),
                                     _rule(83).match_key(), _rule(84).match_key()]

    def test_a_listener_may_unsubscribe_itself_while_it_hears(self):
        tcam = TcamTable()
        heard = []

        def once(installed, lost):
            heard.append(("once", installed, lost))
            tcam.unsubscribe(once)

        tcam.subscribe(once)
        tcam.subscribe(lambda installed, lost: heard.append(("always", installed, lost)))
        tcam.write((), _fresh(_rule(80)))
        tcam.write([_rule(80).match_key()], {})
        assert heard == [("once", 1, 0), ("always", 1, 0), ("always", 0, 1)]

    def test_remove_where_asks_about_each_rule_once_in_table_order(self):
        tcam = TcamTable()
        tcam.write((), _fresh(*(_rule(port) for port in (82, 80, 81, 83))))
        asked = []

        def odd(rule):
            asked.append(rule.port)
            return rule.port % 2 == 1

        assert [rule.port for rule in tcam.remove_where(odd)] == [81, 83]
        assert asked == [82, 80, 81, 83]
        assert [rule.port for rule in tcam.rules()] == [82, 80]


class TestFaultLogBook:
    def test_raise_and_query(self):
        book = FaultLogBook()
        record = book.raise_fault(5, "leaf-1", FaultCode.TCAM_OVERFLOW, "full")
        assert record.is_active_at(5)
        assert record.is_active_at(100)
        assert not record.is_active_at(4)
        assert book.records() == [record]

    def test_clear_device(self):
        book = FaultLogBook()
        book.raise_fault(1, "leaf-1", FaultCode.SWITCH_UNREACHABLE)
        book.raise_fault(2, "leaf-2", FaultCode.SWITCH_UNREACHABLE)
        assert book.clear_device("leaf-1", 10) == 1
        active = [record for record in book if record.is_active_at(11)]
        assert len(active) == 1 and active[0].device_uid == "leaf-2"

    def test_a_cleared_record_is_active_only_before_its_clear(self):
        book = FaultLogBook()
        record = book.raise_fault(1, "leaf-1", FaultCode.AGENT_CRASH)
        record.clear(5)
        assert record.is_active_at(3)
        assert not record.is_active_at(6)

    def test_len_and_iter(self):
        book = FaultLogBook()
        book.raise_fault(1, "a", FaultCode.UNKNOWN)
        book.raise_fault(2, "b", FaultCode.UNKNOWN)
        assert len(book) == 2
        assert len(list(book)) == 2


class TestLeafSpineTopology:
    def test_build_full_mesh(self):
        topo = LeafSpineTopology.build(num_leaves=4, num_spines=2)
        assert len(topo.leaves()) == 4
        assert len(topo.spines()) == 2
        assert topo.summary()["links"] == 8
        topo.validate()

    def test_leaf_leaf_link_rejected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        topo.add_leaf("l2")
        with pytest.raises(FabricError):
            topo.add_link("l1", "l2")

    def test_duplicate_switch_rejected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        with pytest.raises(FabricError):
            topo.add_spine("l1")

    def test_build_names_leaves_in_order(self):
        topo = LeafSpineTopology.build(num_leaves=2, num_spines=2)
        assert topo.leaves() == ["leaf-1", "leaf-2"]
        assert len(topo.spines()) == 2

    def test_degenerate_build_rejected(self):
        with pytest.raises(FabricError):
            LeafSpineTopology.build(0, 1)
        with pytest.raises(FabricError):
            LeafSpineTopology.build(1, 0)

    def test_link_to_an_unknown_switch_rejected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        with pytest.raises(FabricError, match="unknown switch"):
            topo.add_link("l1", "s1")

    def test_a_leaf_added_without_links_disconnects_the_fabric(self):
        topo = LeafSpineTopology.build(num_leaves=3, num_spines=2)
        assert topo.is_connected()
        topo.add_leaf("leaf-4")
        assert not topo.is_connected()
        topo.add_link("leaf-4", topo.spines()[0])
        assert topo.is_connected()
        assert topo.summary() == {"leaves": 4, "spines": 2, "links": 7}

    def test_an_empty_topology_is_not_connected(self):
        topo = LeafSpineTopology()
        assert not topo.is_connected()
        with pytest.raises(FabricError, match="no leaf"):
            topo.validate()

    def test_validate_disconnected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        topo.add_spine("s1")
        with pytest.raises(FabricError):
            topo.validate()
